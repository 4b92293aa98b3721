package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mergepath/internal/promtext"
	"mergepath/internal/server"
	"mergepath/internal/verify"
	"mergepath/internal/wire"
)

// doFmt posts body with explicit Content-Type and Accept and returns
// the response plus its bytes.
func doFmt(t *testing.T, url, path, ctype, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, buf
}

// TestRouterBinaryScatterByteIdentical: a binary-frame merge big enough
// to scatter must come back byte-identical to what a single node
// answers for the same frame, with the sub-requests riding the binary
// format (every backend here advertises it).
func TestRouterBinaryScatterByteIdentical(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *Config) { cfg.ScatterThreshold = 64 }, nil)
	rng := rand.New(rand.NewSource(4))
	a := sortedInt64(rng, 3000, 1<<20)
	b := sortedInt64(rng, 2500, 1<<20)
	body := wire.AppendInt64(nil, a, b)

	rresp, rbody := doFmt(t, c.ts.URL, "/v1/merge", wire.ContentType, wire.ContentType, body)
	nresp, nbody := doFmt(t, c.nodeURLs[0], "/v1/merge", wire.ContentType, wire.ContentType, body)
	if rresp.StatusCode != http.StatusOK || nresp.StatusCode != http.StatusOK {
		t.Fatalf("router %d node %d", rresp.StatusCode, nresp.StatusCode)
	}
	if ct := rresp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("router reply Content-Type %q", ct)
	}
	if !bytes.Equal(rbody, nbody) {
		t.Fatal("scattered binary response differs from single node's")
	}
	fr, err := wire.Decode(bytes.NewReader(rbody), wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Release()
	if !verify.Equal(fr.Ints[0], verify.ReferenceMerge(a, b)) {
		t.Fatal("scattered binary result != reference")
	}

	snap := c.rt.Snapshot()
	if snap.Routing.Scattered == 0 {
		t.Fatal("no scatters recorded")
	}
	if snap.Routing.BinaryHops == 0 {
		t.Fatal("no binary hops recorded on an all-wire fleet")
	}
	prom, err := promtext.Render(PromMetrics, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "mergerouter_binary_hops_total") {
		t.Fatal("binary hop counter missing from the prom exposition")
	}
}

// TestRouterBinaryWholeForward: a small binary request forwards whole
// with Content-Type/Accept passed through, and the backend's binary
// reply comes back untranscoded. A JSON Accept on the same binary body
// must yield the standard JSON envelope.
func TestRouterBinaryWholeForward(t *testing.T) {
	c := newTestCluster(t, 2, nil, nil)
	a, b := seq(0, 50), seq(25, 50)
	body := wire.AppendInt64(nil, a, b)

	resp, buf := doFmt(t, c.ts.URL, "/v1/merge", wire.ContentType, wire.ContentType, body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.ContentType {
		t.Fatalf("status %d ct %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	fr, err := wire.Decode(bytes.NewReader(buf), wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	want := verify.ReferenceMerge(a, b)
	if !verify.Equal(fr.Ints[0], want) {
		t.Fatal("forwarded binary result != reference")
	}
	fr.Release()

	resp2, buf2 := doFmt(t, c.ts.URL, "/v1/merge", wire.ContentType, "application/json", body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("json accept: status %d ct %q", resp2.StatusCode, resp2.Header.Get("Content-Type"))
	}
	var mr server.MergeResponse
	if err := json.Unmarshal(buf2, &mr); err != nil {
		t.Fatal(err)
	}
	if !verify.Equal(mr.Result, want) {
		t.Fatal("json-accept result != reference")
	}

	// The non-merge passthrough endpoints negotiate at the node too.
	resp3, buf3 := doFmt(t, c.ts.URL, "/v1/sort", wire.ContentType, wire.ContentType,
		wire.AppendInt64(nil, []int64{5, 1, 4}))
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("Content-Type") != wire.ContentType {
		t.Fatalf("sort: status %d ct %q", resp3.StatusCode, resp3.Header.Get("Content-Type"))
	}
	sf, err := wire.Decode(bytes.NewReader(buf3), wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Release()
	if !verify.Equal(sf.Ints[0], []int64{1, 4, 5}) {
		t.Fatalf("sort result %v", sf.Ints[0])
	}

	if snap := c.rt.Snapshot(); snap.Routing.Scattered != 0 {
		t.Fatalf("small binary requests scattered: %d", snap.Routing.Scattered)
	}
}

// TestRouterMixedFleetDegradesToJSON: scattering across one
// wire-speaking node and one legacy backend (no formats in /healthz)
// must feed the legacy backend JSON — proven by it actually serving
// JSON windows — while the request still succeeds end to end.
func TestRouterMixedFleetDegradesToJSON(t *testing.T) {
	var legacyServed atomic.Int64
	legacy := fakeBackend(t, healthyDoc, func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("legacy backend got Content-Type %q", ct)
			http.Error(w, `{"error":"bad ctype"}`, http.StatusUnsupportedMediaType)
			return
		}
		legacyServed.Add(1)
		mergeOK(w, r)
	})

	node := server.New(server.Config{Workers: 2})
	nts := httptest.NewServer(node)
	t.Cleanup(func() {
		nts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = node.Drain(ctx)
	})

	rt, err := New(Config{
		Backends:         []string{nts.URL, legacy.URL},
		HealthInterval:   20 * time.Millisecond,
		ScatterThreshold: 64,
		MaxScatter:       2,
		Resilience:       resilienceFast(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)

	rng := rand.New(rand.NewSource(5))
	a := sortedInt64(rng, 2000, 1<<20)
	b := sortedInt64(rng, 2000, 1<<20)
	resp, buf := doFmt(t, rts.URL, "/v1/merge", wire.ContentType, wire.ContentType,
		wire.AppendInt64(nil, a, b))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, buf)
	}
	fr, err := wire.Decode(bytes.NewReader(buf), wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Release()
	if !verify.Equal(fr.Ints[0], verify.ReferenceMerge(a, b)) {
		t.Fatal("mixed-fleet result != reference")
	}
	if legacyServed.Load() == 0 {
		t.Fatal("legacy backend served no JSON windows — degrade path untested")
	}
	if snap := rt.Snapshot(); snap.Routing.BinaryHops == 0 {
		t.Fatal("wire-speaking backend got no binary hops")
	}

	// /healthz reports the split fleet.
	hresp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h RouterHealth
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.WireBackends != 1 {
		t.Fatalf("wire_backends = %d, want 1", h.WireBackends)
	}
	found := false
	for _, f := range h.Formats {
		if f == wire.ContentType {
			found = true
		}
	}
	if !found {
		t.Fatalf("router /healthz formats %v missing the frame type", h.Formats)
	}
}

// TestRouterUnknownContentTypePassthrough: a media type the router
// can't parse forwards whole so the client gets the node's own 415.
func TestRouterUnknownContentTypePassthrough(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.ScatterThreshold = 8 }, nil)
	resp, _ := doFmt(t, c.ts.URL, "/v1/merge", "text/csv", "", []byte("1,2,3"))
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d, want the node's 415", resp.StatusCode)
	}
}

// TestRouterBinaryFrameRejected: a corrupt frame dies at the router
// with a 400 before any backend is bothered.
func TestRouterBinaryFrameRejected(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.ScatterThreshold = 8 }, nil)
	bad := wire.AppendInt64(nil, seq(0, 100), seq(0, 100))[:37]
	resp, _ := doFmt(t, c.ts.URL, "/v1/merge", wire.ContentType, "", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated frame: status %d, want 400", resp.StatusCode)
	}
	// Unsorted binary input is caught by the same pre-scatter check as
	// JSON.
	unsorted := append(seq(0, 100), 5)
	resp2, buf := doFmt(t, c.ts.URL, "/v1/merge", wire.ContentType, "",
		wire.AppendInt64(nil, unsorted, seq(0, 100)))
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(string(buf), "not sorted") {
		t.Fatalf("unsorted frame: status %d body %s", resp2.StatusCode, buf)
	}
}

package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mergepath/internal/promtext"
	"mergepath/internal/resilience"
	"mergepath/internal/server"
	"mergepath/internal/verify"
)

// testCluster is N real mergepathd nodes behind one router, all
// in-process.
type testCluster struct {
	nodes    []*server.Server
	nodeURLs []string
	rt       *Router
	ts       *httptest.Server // the router's listener
}

func newTestCluster(t *testing.T, n int, mut func(*Config), nodeCfg func(i int) server.Config) *testCluster {
	t.Helper()
	c := &testCluster{}
	for i := 0; i < n; i++ {
		cfg := server.Config{Workers: 2}
		if nodeCfg != nil {
			cfg = nodeCfg(i)
		}
		s := server.New(cfg)
		ts := httptest.NewServer(s)
		c.nodes = append(c.nodes, s)
		c.nodeURLs = append(c.nodeURLs, ts.URL)
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Drain(ctx)
		})
	}
	cfg := Config{
		Backends:       c.nodeURLs,
		HealthInterval: 20 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.rt = rt
	c.ts = httptest.NewServer(rt)
	t.Cleanup(func() {
		c.ts.Close()
		rt.Close()
	})
	return c
}

// postRaw sends body and returns the raw response.
func postRaw(t *testing.T, url, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
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

func post(t *testing.T, url, path string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, buf := postRaw(t, url, path, body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf, out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestRouterSmallRequestWhole(t *testing.T) {
	c := newTestCluster(t, 3, nil, nil)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := sortedInt64(rng, rng.Intn(300), 1<<20)
		b := sortedInt64(rng, rng.Intn(300), 1<<20)
		var got server.MergeResponse
		if code := post(t, c.ts.URL, "/v1/merge", server.MergeRequest{A: a, B: b}, &got); code != http.StatusOK {
			t.Fatalf("trial %d: status %d", trial, code)
		}
		if !verify.Equal(got.Result, verify.ReferenceMerge(a, b)) {
			t.Fatalf("trial %d: wrong merge through router", trial)
		}
	}
	snap := c.rt.Snapshot()
	if snap.Routing.Routed == 0 {
		t.Fatal("no requests recorded as routed whole")
	}
	if snap.Routing.Scattered != 0 {
		t.Fatalf("small requests scattered: %d", snap.Routing.Scattered)
	}
}

// TestRouterScatterByteIdentical is the differential acceptance check:
// the scattered response body must be byte-for-byte the single-node
// response body, duplicate-heavy inputs included.
func TestRouterScatterByteIdentical(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *Config) { cfg.ScatterThreshold = 64 }, nil)
	rng := rand.New(rand.NewSource(2))
	for trial, bound := range []int64{8, 1 << 20, 3} {
		a := sortedInt64(rng, 2000+rng.Intn(2000), bound)
		b := sortedInt64(rng, 2000+rng.Intn(2000), bound)
		body, _ := json.Marshal(server.MergeRequest{A: a, B: b})
		rresp, rbody := postRaw(t, c.ts.URL, "/v1/merge", body)
		nresp, nbody := postRaw(t, c.nodeURLs[0], "/v1/merge", body)
		if rresp.StatusCode != http.StatusOK || nresp.StatusCode != http.StatusOK {
			t.Fatalf("trial %d: router %d node %d", trial, rresp.StatusCode, nresp.StatusCode)
		}
		if !bytes.Equal(rbody, nbody) {
			t.Fatalf("trial %d (bound %d): scattered response differs from single node", trial, bound)
		}
	}
	snap := c.rt.Snapshot()
	if snap.Routing.Scattered == 0 {
		t.Fatal("no scatters recorded — threshold not applied?")
	}
	if len(snap.Routing.Fanout) == 0 {
		t.Fatal("empty fan-out distribution")
	}
}

func TestRouterScatterUnsortedRejected(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.ScatterThreshold = 8 }, nil)
	req := server.MergeRequest{A: []int64{5, 1, 9, 2, 8, 3}, B: seq(0, 10)}
	body, _ := json.Marshal(req)
	resp, buf := postRaw(t, c.ts.URL, "/v1/merge", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(buf, &er); err != nil || !strings.Contains(er.Error, "not sorted") {
		t.Fatalf("error body %q (%v)", buf, err)
	}

	// With both lists unsorted the router must name the same list, index
	// and values as the node, every time: a then b, never a random pick.
	rng := rand.New(rand.NewSource(7))
	unsorted := func() []int64 {
		s := seq(0, 12)
		i := 1 + rng.Intn(len(s)-1)
		s[i-1], s[i] = s[i], s[i-1]
		return s
	}
	for try := 0; try < 20; try++ {
		body, _ := json.Marshal(server.MergeRequest{A: unsorted(), B: unsorted()})
		_, viaRouter := postRaw(t, c.ts.URL, "/v1/merge", body)
		_, viaNode := postRaw(t, c.nodeURLs[0], "/v1/merge", body)
		if !bytes.Equal(viaRouter, viaNode) {
			t.Fatalf("try %d: router 400 %q, node 400 %q", try, viaRouter, viaNode)
		}
	}
}

func TestRouterForwardsAllEndpoints(t *testing.T) {
	c := newTestCluster(t, 2, nil, nil)
	var sr server.SortResponse
	if code := post(t, c.ts.URL, "/v1/sort", server.SortRequest{Data: []int64{5, 1, 4, 1, 3}}, &sr); code != http.StatusOK {
		t.Fatalf("sort status %d", code)
	}
	if !verify.Equal(sr.Result, []int64{1, 1, 3, 4, 5}) {
		t.Fatalf("sort result %v", sr.Result)
	}
	var mk server.MergeKResponse
	if code := post(t, c.ts.URL, "/v1/mergek", server.MergeKRequest{Lists: [][]int64{{1, 4}, {2, 5}, {3}}}, &mk); code != http.StatusOK {
		t.Fatalf("mergek status %d", code)
	}
	if !verify.Equal(mk.Result, []int64{1, 2, 3, 4, 5}) {
		t.Fatalf("mergek result %v", mk.Result)
	}
	var so server.SetOpsResponse
	if code := post(t, c.ts.URL, "/v1/setops", server.SetOpsRequest{Op: "intersect", A: []int64{1, 2, 3}, B: []int64{2, 3, 4}}, &so); code != http.StatusOK {
		t.Fatalf("setops status %d", code)
	}
	if !verify.Equal(so.Result, []int64{2, 3}) {
		t.Fatalf("setops result %v", so.Result)
	}
	var sel server.SelectResponse
	if code := post(t, c.ts.URL, "/v1/select", server.SelectRequest{A: []int64{1, 3}, B: []int64{2, 4}, K: 3}, &sel); code != http.StatusOK {
		t.Fatalf("select status %d", code)
	}
	if sel.Kth == nil || *sel.Kth != 3 {
		t.Fatalf("select result %+v", sel)
	}
	// Client errors pass through untouched (wrong op → node's 400).
	if code := post(t, c.ts.URL, "/v1/setops", server.SetOpsRequest{Op: "bogus"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bogus op status %d, want 400", code)
	}
}

// fakeBackend is a hand-rolled backend for failure-mode tests: a
// scripted /healthz document and a controllable /v1/merge.
func fakeBackend(t *testing.T, health func() server.Health, merge http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(health())
	})
	if merge != nil {
		mux.HandleFunc("POST /v1/merge", merge)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func healthyDoc() server.Health {
	return server.Health{Status: "ok", Role: "node", Workers: 2, QueueCapacity: 256}
}

func mergeOK(w http.ResponseWriter, r *http.Request) {
	var req server.MergeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(server.MergeResponse{Result: verify.ReferenceMerge(req.A, req.B)})
}

// TestRouterFailover: the rendezvous pick can land on a broken backend;
// the router must retry the other one and still answer 200.
func TestRouterFailover(t *testing.T) {
	broken := fakeBackend(t, healthyDoc, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
	})
	good := fakeBackend(t, healthyDoc, mergeOK)
	rt, err := New(Config{
		Backends:       []string{broken.URL, good.URL},
		HealthInterval: 20 * time.Millisecond,
		Resilience:     resilienceFast(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		a := sortedInt64(rng, 50, 1<<20)
		b := sortedInt64(rng, 50, 1<<20)
		var got server.MergeResponse
		if code := post(t, ts.URL, "/v1/merge", server.MergeRequest{A: a, B: b}, &got); code != http.StatusOK {
			t.Fatalf("trial %d: status %d (failover did not rescue)", trial, code)
		}
		if !verify.Equal(got.Result, verify.ReferenceMerge(a, b)) {
			t.Fatalf("trial %d: wrong merge", trial)
		}
	}
}

// TestRouterBrownoutDiversion: a backend that reports shedding on
// /healthz stops receiving traffic while a healthy peer exists — no
// errors needed.
func TestRouterBrownoutDiversion(t *testing.T) {
	var shedHits, goodHits atomic.Int64
	shedding := fakeBackend(t,
		func() server.Health { h := healthyDoc(); h.Status = "shedding"; return h },
		func(w http.ResponseWriter, r *http.Request) { shedHits.Add(1); mergeOK(w, r) })
	good := fakeBackend(t, healthyDoc, func(w http.ResponseWriter, r *http.Request) { goodHits.Add(1); mergeOK(w, r) })
	rt, err := New(Config{
		Backends:       []string{shedding.URL, good.URL},
		HealthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)

	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		a := sortedInt64(rng, 40, 1<<20)
		b := sortedInt64(rng, 40, 1<<20)
		if code := post(t, ts.URL, "/v1/merge", server.MergeRequest{A: a, B: b}, nil); code != http.StatusOK {
			t.Fatalf("trial %d: status %d", trial, code)
		}
	}
	if n := shedHits.Load(); n != 0 {
		t.Fatalf("shedding backend served %d requests; diversion failed", n)
	}
	if goodHits.Load() == 0 {
		t.Fatal("healthy backend served nothing")
	}
}

// TestRouterNoBackends: every backend down → 503 from the router, not a
// hang or a 502 storm.
func TestRouterAllBackendsDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gone", http.StatusNotFound)
	}))
	dead.Close() // listener gone: polls and requests both fail
	rt, err := New(Config{
		Backends:       []string{dead.URL},
		HealthInterval: 10 * time.Millisecond,
		Resilience:     resilienceFast(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)

	code := post(t, ts.URL, "/v1/merge", server.MergeRequest{A: seq(0, 4), B: seq(0, 4)}, nil)
	if code != http.StatusBadGateway && code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 502/503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d, want 503", resp.StatusCode)
	}
	var h RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "down" || h.Role != "router" {
		t.Fatalf("health = %+v", h)
	}
}

func TestRouterObservabilitySurfaces(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.ScatterThreshold = 64 }, nil)
	rng := rand.New(rand.NewSource(5))
	a := sortedInt64(rng, 600, 1<<20)
	b := sortedInt64(rng, 600, 1<<20)
	body, _ := json.Marshal(server.MergeRequest{A: a, B: b})
	resp, _ := postRaw(t, c.ts.URL, "/v1/merge", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merge status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("no X-Request-Id echoed")
	}
	st := resp.Header.Get("Server-Timing")
	for _, stage := range []string{StageRoute, StageScatter} {
		if !strings.Contains(st, stage+";dur=") {
			t.Fatalf("Server-Timing %q missing stage %q", st, stage)
		}
	}

	// /healthz: role router, both backends counted healthy.
	hresp, err := http.Get(c.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h RouterHealth
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Role != "router" || h.Status != "ok" || h.Backends != 2 || h.BackendStates["healthy"] != 2 {
		t.Fatalf("router health = %+v", h)
	}

	// /metrics: parses, has per-backend rows and the scatter counters.
	mresp, err := http.Get(c.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	var snap MetricsSnapshot
	var doc map[string]any
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mbody, &doc); err != nil {
		t.Fatal(err)
	}
	if len(snap.Backends) != 2 {
		t.Fatalf("backend rows = %d", len(snap.Backends))
	}
	if snap.Routing.Scattered == 0 {
		t.Fatal("scatter not counted")
	}
	for _, b := range snap.Backends {
		if b.State != "healthy" {
			t.Fatalf("backend %s state %q", b.URL, b.State)
		}
	}

	// /metrics/prom: exposition content type, each family one group, and
	// every descriptor's series equal to its JSON path in /metrics. The
	// uptime and the backends' polled load signals run on their own
	// clocks, so only they may move between the two scrapes.
	presp, err := http.Get(c.ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if ct := presp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prom content type %q", ct)
	}
	pbody, _ := io.ReadAll(presp.Body)
	samples := promSamples(t, string(pbody))
	volatile := map[string]bool{"uptime_seconds": true, "backends[url].backlog_elements": true,
		"backends[url].queue_depth": true, "backends[url].drain_elems_per_sec": true}
	for _, d := range PromMetrics {
		text, err := promtext.Render([]promtext.Desc{d}, doc)
		if err != nil {
			t.Fatal(err)
		}
		want := promSamples(t, string(text))
		if len(want) == 0 {
			t.Errorf("%s: no series from JSON path %s", d.Name, d.Path)
		}
		for key, v := range want {
			if got, ok := samples[key]; !ok {
				t.Errorf("%s missing from /metrics/prom", key)
			} else if got != v && !volatile[d.Path] {
				t.Errorf("%s = %v, prom/JSON disagree (JSON %s gives %v)", key, got, d.Path, v)
			}
		}
	}
	for _, key := range []string{
		`mergerouter_backend_state{backend="` + snap.Backends[1].URL + `",state="healthy"}`,
		`mergerouter_requests_total{endpoint="merge"}`,
	} {
		if samples[key] != 1 {
			t.Errorf("%s = %v, want 1", key, samples[key])
		}
	}
}

// promSamples returns an exposition's samples keyed by "name{labels}",
// failing the test when a family's lines do not form one group.
func promSamples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	summaries := make(map[string]bool)
	ended := make(map[string]bool)
	family := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		var name string
		if f := strings.Fields(line); strings.HasPrefix(line, "#") {
			name = f[2]
			summaries[name] = summaries[name] || f[1] == "TYPE" && f[3] == "summary"
		} else {
			key, val, _ := strings.Cut(line, " ")
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("bad sample %q", line)
			}
			samples[key] = v
			name, _, _ = strings.Cut(key, "{")
			if base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count"); summaries[base] {
				name = base
			}
		}
		if name != family {
			if ended[name] {
				t.Errorf("family %s split into more than one group", name)
			}
			ended[family], family = true, name
		}
	}
	return samples
}

// TestRouterGatherStrategy pins the gather: each co-ranked window's
// sub-merge lands straight in its own slice of the response, so a
// duplicate-heavy scatter (ties crossing windows) still returns the
// single-node body byte for byte, and the scatter lands on both the
// /metrics JSON and the prom exposition.
func TestRouterGatherStrategy(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *Config) { cfg.ScatterThreshold = 64 }, nil)
	rng := rand.New(rand.NewSource(9))
	a := sortedInt64(rng, 3000, 32) // duplicate-heavy: ties cross windows
	b := sortedInt64(rng, 3000, 32)
	body, _ := json.Marshal(server.MergeRequest{A: a, B: b})
	rresp, rbody := postRaw(t, c.ts.URL, "/v1/merge", body)
	nresp, nbody := postRaw(t, c.nodeURLs[0], "/v1/merge", body)
	if rresp.StatusCode != http.StatusOK || nresp.StatusCode != http.StatusOK {
		t.Fatalf("router %d node %d", rresp.StatusCode, nresp.StatusCode)
	}
	if !bytes.Equal(rbody, nbody) {
		t.Fatal("gathered response differs from single node")
	}

	snap := c.rt.Snapshot()
	if snap.Routing.Scattered != 1 {
		t.Fatalf("scattered %d, want 1", snap.Routing.Scattered)
	}
	if snap.Routing.Fanout[3] != 1 {
		t.Fatalf("fan-out %v, want one 3-window scatter", snap.Routing.Fanout)
	}

	presp, err := http.Get(c.ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	pbody, _ := io.ReadAll(presp.Body)
	for _, want := range []string{
		"mergerouter_scattered_total 1",
		`mergerouter_scatter_fanout_total{windows="3"} 1`,
	} {
		if !strings.Contains(string(pbody), want) {
			t.Fatalf("prom exposition missing %q", want)
		}
	}
}

// TestRouterScatterShortPartial: a backend that answers 200 with one
// element too few must not land in the response. The window fails over
// to the other backend, and the 200 equals the reference merge.
func TestRouterScatterShortPartial(t *testing.T) {
	var shortHits atomic.Int64
	short := fakeBackend(t, healthyDoc, func(w http.ResponseWriter, r *http.Request) {
		var req server.MergeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		shortHits.Add(1)
		out := verify.ReferenceMerge(req.A, req.B)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(server.MergeResponse{Result: out[:len(out)-1]})
	})
	good := fakeBackend(t, healthyDoc, mergeOK)
	rt, err := New(Config{
		Backends:         []string{short.URL, good.URL},
		HealthInterval:   20 * time.Millisecond,
		ScatterThreshold: 64,
		Resilience:       resilienceFast(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)

	rng := rand.New(rand.NewSource(10))
	a := sortedInt64(rng, 500, 16)
	b := sortedInt64(rng, 500, 16)
	var got server.MergeResponse
	if code := post(t, ts.URL, "/v1/merge", server.MergeRequest{A: a, B: b}, &got); code != http.StatusOK {
		t.Fatalf("status %d (failover did not rescue the short window)", code)
	}
	if !verify.Equal(got.Result, verify.ReferenceMerge(a, b)) {
		t.Fatal("scattered response differs from the reference merge")
	}
	snap := rt.Snapshot()
	if shortHits.Load() == 0 || snap.Routing.Scattered != 1 || snap.Routing.Rerouted == 0 {
		t.Fatalf("short backend hits %d, routing %+v: the short partial was never exercised",
			shortHits.Load(), snap.Routing)
	}
}

// resilienceFast returns a resilience config tuned so failure tests
// don't sit out full backoffs.
func resilienceFast() resilience.Config {
	return resilience.Config{
		MaxRetries: 1,
		Backoff:    resilience.BackoffConfig{Base: time.Millisecond, Max: 5 * time.Millisecond},
	}
}

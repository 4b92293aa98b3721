package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sort"
	"strings"
	"testing"
	"time"

	"mergepath/internal/jobs"
	"mergepath/internal/verify"
	"mergepath/internal/wire"
)

// doRaw posts body with explicit Content-Type/Accept headers and
// returns status, response Content-Type and the raw response bytes.
func doRaw(t *testing.T, ts *httptest.Server, path, ctype, accept string, body []byte) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), out
}

func sortedFloat64(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * 1e6
	}
	sort.Float64s(s)
	return s
}

// TestWireDifferential is the format-equivalence acceptance test: on
// /v1/merge, /v1/sort and /v1/mergek, across sizes straddling the
// coalesce limit, the four Content-Type × Accept combinations must
// agree byte-for-byte — both JSON replies identical, both binary
// replies identical, and the binary payload element-for-element equal
// to the JSON result.
func TestWireDifferential(t *testing.T) {
	_, ts := newTestServer(t, Config{CoalesceLimit: 1 << 10, MaxBodyBytes: 32 << 20})
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 17, 1000, 5000} {
		a := sortedInt64(rng, n)
		b := sortedInt64(rng, n/2+1)
		c := sortedInt64(rng, n/3+1)

		cases := []struct {
			path     string
			jsonBody any
			lists    [][]int64
			want     []int64 // reference result
		}{
			{"/v1/merge", MergeRequest{A: a, B: b}, [][]int64{a, b}, verify.ReferenceMerge(a, b)},
			{"/v1/sort", SortRequest{Data: append([]int64(nil), b...)}, [][]int64{b}, verify.ReferenceMerge(b, nil)},
			{"/v1/mergek", MergeKRequest{Lists: [][]int64{a, b, c}}, [][]int64{a, b, c},
				verify.ReferenceMerge(verify.ReferenceMerge(a, b), c)},
		}
		for _, tc := range cases {
			jsonBody, err := json.Marshal(tc.jsonBody)
			if err != nil {
				t.Fatal(err)
			}
			// /v1/sort's frame must carry the unsorted data, like its JSON
			// body does; the other endpoints' lists are already what the
			// JSON carries.
			binBody := wire.AppendInt64(nil, tc.lists...)

			st1, ct1, jFromJSON := doRaw(t, ts, tc.path, "application/json", "", jsonBody)
			st2, ct2, jFromBin := doRaw(t, ts, tc.path, wire.ContentType, "application/json", binBody)
			st3, ct3, bFromJSON := doRaw(t, ts, tc.path, "application/json", wire.ContentType, jsonBody)
			st4, ct4, bFromBin := doRaw(t, ts, tc.path, wire.ContentType, wire.ContentType, binBody)
			for i, st := range []int{st1, st2, st3, st4} {
				if st != http.StatusOK {
					t.Fatalf("%s n=%d combo %d: status %d", tc.path, n, i+1, st)
				}
			}
			if ct1 != "application/json" || ct2 != "application/json" {
				t.Fatalf("%s: JSON replies carried Content-Type %q / %q", tc.path, ct1, ct2)
			}
			if ct3 != wire.ContentType || ct4 != wire.ContentType {
				t.Fatalf("%s: binary replies carried Content-Type %q / %q", tc.path, ct3, ct4)
			}
			if !bytes.Equal(jFromJSON, jFromBin) {
				t.Fatalf("%s n=%d: JSON reply differs between request formats", tc.path, n)
			}
			if !bytes.Equal(bFromJSON, bFromBin) {
				t.Fatalf("%s n=%d: binary reply differs between request formats", tc.path, n)
			}
			// Cross-format: the frame's payload must equal the JSON result
			// and the reference.
			var jr MergeResponse
			if err := json.Unmarshal(jFromJSON, &jr); err != nil {
				t.Fatal(err)
			}
			fr, err := wire.Decode(bytes.NewReader(bFromBin), wire.Limits{})
			if err != nil {
				t.Fatalf("%s n=%d: decoding binary reply: %v", tc.path, n, err)
			}
			if fr.Lists() != 1 || !verify.Equal(fr.Ints[0], jr.Result) {
				t.Fatalf("%s n=%d: binary payload != JSON result", tc.path, n)
			}
			if !verify.Equal(jr.Result, tc.want) {
				t.Fatalf("%s n=%d: result != reference", tc.path, n)
			}
			fr.Release()
		}
	}
}

// TestWireFloat64 drives the float64 element type the frame enables:
// binary float merges and sorts answer correctly in both response
// formats, and the JSON and binary replies carry the same values.
func TestWireFloat64(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(9))
	a := sortedFloat64(rng, 3000)
	b := sortedFloat64(rng, 1700)
	body := wire.AppendFloat64(nil, a, b)

	st, ct, bin := doRaw(t, ts, "/v1/merge", wire.ContentType, wire.ContentType, body)
	if st != http.StatusOK || ct != wire.ContentType {
		t.Fatalf("binary float merge: status %d ct %q body %s", st, ct, bin)
	}
	fr, err := wire.Decode(bytes.NewReader(bin), wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Release()
	want := verify.ReferenceMerge(a, b)
	if fr.Type != wire.Float64 || !verify.Equal(fr.Floats[0], want) {
		t.Fatalf("float merge payload wrong (type %v, %d elements)", fr.Type, fr.Elements())
	}

	st, _, js := doRaw(t, ts, "/v1/merge", wire.ContentType, "application/json", body)
	if st != http.StatusOK {
		t.Fatalf("float merge with JSON accept: status %d", st)
	}
	var jr struct {
		Result []float64 `json:"result"`
	}
	if err := json.Unmarshal(js, &jr); err != nil {
		t.Fatal(err)
	}
	if !verify.Equal(jr.Result, want) {
		t.Fatal("JSON float reply != reference")
	}

	data := append([]float64(nil), b...)
	rng.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	st, _, sbin := doRaw(t, ts, "/v1/sort", wire.ContentType, wire.ContentType, wire.AppendFloat64(nil, data))
	if st != http.StatusOK {
		t.Fatalf("float sort: status %d", st)
	}
	sf, err := wire.Decode(bytes.NewReader(sbin), wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Release()
	if !verify.Equal(sf.Floats[0], b) {
		t.Fatal("float sort payload != sorted reference")
	}

	// An unsorted float input must fail validation like an int64 one.
	st, _, _ = doRaw(t, ts, "/v1/merge", wire.ContentType, "", wire.AppendFloat64(nil, []float64{2, 1}, nil))
	if st != http.StatusBadRequest {
		t.Fatalf("unsorted float merge: status %d, want 400", st)
	}
}

// TestTrailingGarbageRejected pins the decode() fix: a valid JSON
// document followed by anything but whitespace is a 400, on every JSON
// endpoint.
func TestTrailingGarbageRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`{"a":[1],"b":[2]}junk`, http.StatusBadRequest},
		{`{"a":[1],"b":[2]}{"a":[],"b":[]}`, http.StatusBadRequest},
		{`{"a":[1],"b":[2]}]`, http.StatusBadRequest},
		{`{"a":[1],"b":[2]}` + "  \n\t ", http.StatusOK}, // whitespace is fine
		{`{"a":[1],"b":[2]}`, http.StatusOK},
	}
	for _, tc := range cases {
		st, _, body := doRaw(t, ts, "/v1/merge", "application/json", "", []byte(tc.body))
		if st != tc.want {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, st, tc.want, body)
		}
	}
	// The other decode() users share the fix.
	if st, _, _ := doRaw(t, ts, "/v1/sort", "application/json", "", []byte(`{"data":[3,1]}x`)); st != http.StatusBadRequest {
		t.Errorf("sort trailing garbage: status %d, want 400", st)
	}
	if st, _, _ := doRaw(t, ts, "/v1/jobs", "application/json", "", []byte(`{"type":"sortfile"}[]`)); st != http.StatusBadRequest {
		t.Errorf("jobs trailing garbage: status %d, want 400", st)
	}
	if n := s.Snapshot().Wire.RequestsJSON; n == 0 {
		t.Error("wire.requests_json stayed zero")
	}
}

// TestUnsupportedMediaType covers the 415 paths and their counter: an
// unknown Content-Type anywhere, and the frame on the endpoints whose
// request documents cannot be arrays.
func TestUnsupportedMediaType(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []struct {
		path, ctype string
		body        []byte
	}{
		{"/v1/merge", "text/csv", []byte("1,2")},
		{"/v1/merge", "application/x-msgpack", []byte{0x80}},
		{"/v1/setops", wire.ContentType, wire.AppendInt64(nil, []int64{1}, []int64{2})},
		{"/v1/select", wire.ContentType, wire.AppendInt64(nil, []int64{1}, []int64{2})},
	}
	for _, tc := range cases {
		st, _, body := doRaw(t, ts, tc.path, tc.ctype, "", tc.body)
		if st != http.StatusUnsupportedMediaType {
			t.Errorf("%s with %s: status %d, want 415 (%s)", tc.path, tc.ctype, st, body)
		}
	}
	snap := s.Snapshot()
	if got := snap.Wire.UnsupportedMediaType; got != uint64(len(cases)) {
		t.Errorf("unsupported_media_type_total = %d, want %d", got, len(cases))
	}
	// The counters reach the Prometheus surface too.
	prom := promText(t, snap)
	if !strings.Contains(prom, "mergepathd_unsupported_media_type_total 4") {
		t.Error("415 counter missing from the prom exposition")
	}
	if !strings.Contains(prom, `mergepathd_wire_requests_total{format="binary"}`) {
		t.Error("binary request counter missing from the prom exposition")
	}
}

// TestBinaryFrameBadRequests maps malformed frames onto the JSON
// path's status contract: truncation and structural nonsense are 400,
// an absurd length table is 413 — and none of them crash the daemon.
func TestBinaryFrameBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 20})
	valid := wire.AppendInt64(nil, []int64{1, 2}, []int64{3})
	huge := append([]byte(nil), valid...)
	for i := 0; i < 8; i++ {
		huge[8+i] = 0xFF // first list length -> 2^64-1
	}
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"truncated header", valid[:6], http.StatusBadRequest},
		{"truncated payload", valid[:len(valid)-3], http.StatusBadRequest},
		{"trailing bytes", append(append([]byte(nil), valid...), 1), http.StatusBadRequest},
		{"not a frame", []byte("{}"), http.StatusBadRequest},
		{"wrong list count", wire.AppendInt64(nil, []int64{1}), http.StatusBadRequest},
		{"absurd lengths", huge, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		st, _, body := doRaw(t, ts, "/v1/merge", wire.ContentType, "", tc.body)
		if st != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, st, tc.want, body)
		}
	}
	// The daemon is still alive and correct.
	var out MergeResponse
	if st := post(t, ts, "/v1/merge", MergeRequest{A: []int64{1}, B: []int64{2}}, &out); st != http.StatusOK {
		t.Fatalf("follow-up merge: status %d", st)
	}
}

// TestConnReuseAfterEarly4xx pins the drain fix: an error response that
// fires before the body was read (415 here) must leave the keep-alive
// connection reusable. The 512 KiB body is deliberately bigger than
// net/http's own 256 KiB post-handler auto-drain allowance — without
// the handler-side drain the server would close the connection.
func TestConnReuseAfterEarly4xx(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()
	big := bytes.Repeat([]byte{7}, 512<<10)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/merge", bytes.NewReader(big))
	req.Header.Set("Content-Type", "application/x-unknown")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d, want 415", resp.StatusCode)
	}

	reused := false
	trace := &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
	}
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/merge",
		strings.NewReader(`{"a":[1],"b":[2]}`))
	req2 = req2.WithContext(httptrace.WithClientTrace(context.Background(), trace))
	req2.Header.Set("Content-Type", "application/json")
	resp2, err := client.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d", resp2.StatusCode)
	}
	if !reused {
		t.Fatal("connection was not reused after the drained 415")
	}
}

// TestJobResultAbortCounted pins the handleJobResult fix: a client that
// vanishes mid-download of a job result must increment
// jobs result_aborts_total (on /metrics and the prom rendering), not be
// recorded as a clean 200.
func TestJobResultAbortCounted(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Jobs: jobs.Config{Dir: t.TempDir(), MemoryRecords: 1 << 20},
	})
	rng := rand.New(rand.NewSource(3))
	// 8 MiB result: beyond a loopback connection's socket buffers (Linux
	// tcp_wmem tops out at 4 MiB by default), so the server is still
	// writing when the client vanishes.
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	ds := postDataset(t, ts.URL, encodeRecords(vals))
	v, st := submitJob(t, ts.URL, ds.ID)
	if st != http.StatusAccepted {
		t.Fatalf("submit status %d", st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, _ := getJob(t, ts.URL, v.ID)
		if cur.State == "done" {
			break
		}
		if cur.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job state %q", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/result", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a sliver, then vanish.
	if _, err := io.ReadFull(resp.Body, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	var aborts uint64
	for time.Now().Before(deadline) {
		aborts = s.Snapshot().Jobs.ResultAborts
		if aborts > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if aborts != 1 {
		t.Fatalf("result_aborts_total = %d, want 1", aborts)
	}
	if !strings.Contains(promText(t, s.Snapshot()), "mergepathd_jobs_result_aborts_total 1") {
		t.Error("abort counter missing from the prom exposition")
	}

	// A clean download still records no further aborts.
	resp2, err := ts.Client().Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp2.Body); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := s.Snapshot().Jobs.ResultAborts; got != 1 {
		t.Fatalf("aborts after clean download = %d, want 1", got)
	}
}

// TestHealthzAdvertisesFormats pins the capability advertisement the
// router's binary scatter hops key on.
func TestHealthzAdvertisesFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"application/json": false, wire.ContentType: false}
	for _, f := range h.Formats {
		if _, ok := want[f]; ok {
			want[f] = true
		}
	}
	for f, seen := range want {
		if !seen {
			t.Errorf("/healthz formats missing %q (got %v)", f, h.Formats)
		}
	}
}

// TestWireFloat64NaNRejected pins the float64 order contract: a binary
// frame carrying any NaN — quiet or signaling, at the front or in the
// middle of a run — is a 400 on every array endpoint, before any
// kernel sees it, while ±0 and ±Inf stay valid inputs that merge to the
// reference bytes.
func TestWireFloat64NaNRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	nan, snan := math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001)
	cases := []struct {
		path  string
		lists [][]float64
	}{
		{"/v1/sort", [][]float64{{3, nan, 1}}},
		{"/v1/sort", [][]float64{{snan}}},
		{"/v1/merge", [][]float64{{nan, 1, 2}, {0, 5}}},
		{"/v1/merge", [][]float64{{1, 2}, {0, snan, 5}}},
		{"/v1/mergek", [][]float64{{1, 2}, {0, 5}, {3, nan, 4}}},
		{"/v1/mergek", [][]float64{{nan}}},
	}
	for _, tc := range cases {
		st, _, body := doRaw(t, ts, tc.path, wire.ContentType, wire.ContentType, wire.AppendFloat64(nil, tc.lists...))
		if st != http.StatusBadRequest || !strings.Contains(string(body), "NaN") {
			t.Errorf("%s %v: status %d body %s, want 400 naming NaN", tc.path, tc.lists, st, body)
		}
	}
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	a := []float64{-inf, negZero, 0, 1, inf}
	b := []float64{-inf, 0, negZero, inf}
	st, _, bin := doRaw(t, ts, "/v1/merge", wire.ContentType, wire.ContentType, wire.AppendFloat64(nil, a, b))
	if st != http.StatusOK {
		t.Fatalf("±0/±Inf merge: status %d", st)
	}
	fr, err := wire.Decode(bytes.NewReader(bin), wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Release()
	// Bit-exact, so a -0/+0 swap against the stable reference shows.
	want := verify.ReferenceMerge(a, b)
	for i, v := range fr.Floats[0] {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("±0/±Inf merge = %v, want %v", fr.Floats[0], want)
		}
	}
}

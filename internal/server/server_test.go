package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mergepath/internal/verify"
)

// post sends a JSON body and decodes the JSON reply into out (which may
// be nil when only the status matters).
func post(t *testing.T, ts *httptest.Server, path string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func sortedInt64(rng *rand.Rand, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = rng.Int63n(1 << 20)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

// newRawServer wraps s in an httptest transport without draining it on
// cleanup — for tests that manage the drain themselves.
func newRawServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func TestMergeCoalescedCorrect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		a := sortedInt64(rng, rng.Intn(400))
		b := sortedInt64(rng, rng.Intn(400))
		var got MergeResponse
		if code := post(t, ts, "/v1/merge", MergeRequest{A: a, B: b}, &got); code != http.StatusOK {
			t.Fatalf("trial %d: status %d", trial, code)
		}
		if !verify.Equal(got.Result, verify.ReferenceMerge(a, b)) {
			t.Fatalf("trial %d: wrong merge", trial)
		}
	}
}

func TestMergeLargePartitionedPath(t *testing.T) {
	// CoalesceLimit 64 forces anything bigger through the
	// whole-pool ParallelMerge path.
	_, ts := newTestServer(t, Config{CoalesceLimit: 64, Workers: 4})
	rng := rand.New(rand.NewSource(2))
	a := sortedInt64(rng, 5000)
	b := sortedInt64(rng, 7000)
	var got MergeResponse
	if code := post(t, ts, "/v1/merge", MergeRequest{A: a, B: b}, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !verify.Equal(got.Result, verify.ReferenceMerge(a, b)) {
		t.Fatal("wrong merge on large path")
	}
}

func TestMergeStableOrdering(t *testing.T) {
	// Heavy ties: the service must return the reference *stable* merge,
	// bit-identical, not merely some sorted permutation.
	_, ts := newTestServer(t, Config{})
	a := []int64{1, 1, 2, 2, 2, 3, 9, 9}
	b := []int64{1, 2, 2, 3, 3, 9}
	var got MergeResponse
	if code := post(t, ts, "/v1/merge", MergeRequest{A: a, B: b}, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !verify.Equal(got.Result, verify.ReferenceMerge(a, b)) {
		t.Fatalf("not the stable reference merge: %v", got.Result)
	}
}

func TestSortEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(3))
	data := make([]int64, 3000)
	for i := range data {
		data[i] = rng.Int63n(1000)
	}
	orig := append([]int64(nil), data...)
	var got SortResponse
	if code := post(t, ts, "/v1/sort", SortRequest{Data: data}, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !verify.Sorted(got.Result) || !verify.SameMultiset(got.Result, orig) {
		t.Fatal("sort endpoint returned a non-sort")
	}
}

func TestMergeKEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(4))
	lists := make([][]int64, 5)
	var all []int64
	for i := range lists {
		lists[i] = sortedInt64(rng, 100+rng.Intn(200))
		all = append(all, lists[i]...)
	}
	var got MergeKResponse
	if code := post(t, ts, "/v1/mergek", MergeKRequest{Lists: lists}, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !verify.Sorted(got.Result) || !verify.SameMultiset(got.Result, all) {
		t.Fatal("mergek endpoint wrong")
	}
}

func TestSetOpsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := []int64{1, 2, 2, 3, 5}
	b := []int64{2, 3, 3, 6}
	cases := []struct {
		op   string
		want []int64
	}{
		{"union", []int64{1, 2, 2, 3, 3, 5, 6}},
		{"intersect", []int64{2, 3}},
		{"diff", []int64{1, 2, 5}},
	}
	for _, c := range cases {
		var got SetOpsResponse
		if code := post(t, ts, "/v1/setops", SetOpsRequest{Op: c.op, A: a, B: b}, &got); code != http.StatusOK {
			t.Fatalf("%s: status %d", c.op, code)
		}
		if !verify.Equal(got.Result, c.want) {
			t.Errorf("%s = %v, want %v", c.op, got.Result, c.want)
		}
	}
}

func TestSelectEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := []int64{1, 3, 5, 7, 9}
	b := []int64{2, 4, 6, 8}
	merged := verify.ReferenceMerge(a, b)
	for k := 0; k <= len(merged); k++ {
		var got SelectResponse
		if code := post(t, ts, "/v1/select", SelectRequest{A: a, B: b, K: k}, &got); code != http.StatusOK {
			t.Fatalf("k=%d: status %d", k, code)
		}
		if got.ARank+got.BRank != k {
			t.Fatalf("k=%d: ranks %d+%d", k, got.ARank, got.BRank)
		}
		if k >= 1 {
			if got.Kth == nil || *got.Kth != merged[k-1] {
				t.Fatalf("k=%d: kth = %v, want %d", k, got.Kth, merged[k-1])
			}
		} else if got.Kth != nil {
			t.Fatalf("k=0 must omit kth, got %d", *got.Kth)
		}
	}
}

func TestMalformedInput400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Broken JSON.
	resp, err := ts.Client().Post(ts.URL+"/v1/merge", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken JSON: status %d, want 400", resp.StatusCode)
	}
	// Unsorted inputs.
	if code := post(t, ts, "/v1/merge", MergeRequest{A: []int64{3, 1}, B: nil}, nil); code != http.StatusBadRequest {
		t.Errorf("unsorted a: status %d, want 400", code)
	}
	if code := post(t, ts, "/v1/mergek", MergeKRequest{Lists: [][]int64{{1, 2}, {5, 4}}}, nil); code != http.StatusBadRequest {
		t.Errorf("unsorted list: status %d, want 400", code)
	}
	if code := post(t, ts, "/v1/setops", SetOpsRequest{Op: "xor", A: []int64{1}, B: []int64{2}}, nil); code != http.StatusBadRequest {
		t.Errorf("bad op: status %d, want 400", code)
	}
	if code := post(t, ts, "/v1/select", SelectRequest{A: []int64{1}, B: []int64{2}, K: 99}, nil); code != http.StatusBadRequest {
		t.Errorf("k out of range: status %d, want 400", code)
	}
}

func TestOversizedInput413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	rng := rand.New(rand.NewSource(5))
	big := sortedInt64(rng, 1000)
	if code := post(t, ts, "/v1/merge", MergeRequest{A: big, B: big}, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", code)
	}
}

// blockPool submits a job that occupies the dispatcher until release is
// closed, making queue states deterministic for shedding/drain tests.
func blockPool(t *testing.T, s *Server) (release chan struct{}, blocked chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	blocked = make(chan struct{})
	j := &job{done: make(chan error, 1), run: func(context.Context, int) error {
		close(blocked)
		<-release
		return nil
	}}
	if err := s.pool.submit(j); err != nil {
		t.Fatalf("blocker rejected: %v", err)
	}
	<-blocked // dispatcher is now inside the blocker round
	return release, blocked
}

func TestQueueFull503(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 2, Workers: 2})
	release, _ := blockPool(t, s)
	defer close(release)
	// Fill the queue to capacity behind the blocker.
	for i := 0; i < 2; i++ {
		if err := s.pool.submit(&job{done: make(chan error, 1), run: func(context.Context, int) error { return nil }}); err != nil {
			t.Fatalf("filler %d rejected: %v", i, err)
		}
	}
	// The next request must be shed immediately, not queued or spawned.
	code := post(t, ts, "/v1/merge", MergeRequest{A: []int64{1}, B: []int64{2}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	snap := s.Metrics().snapshot(s.pool)
	if snap.Queue.Shed == 0 {
		t.Error("shed counter not incremented")
	}
	if snap.Queue.Capacity != 2 {
		t.Errorf("capacity %d, want 2", snap.Queue.Capacity)
	}
}

func TestDeadlineWhileQueued504(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8})
	release, _ := blockPool(t, s)
	defer close(release)
	req, err := http.NewRequest("POST", ts.URL+"/v1/merge",
		strings.NewReader(`{"a":[1],"b":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Timeout-Ms", "50")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

func TestCoalescingBatchesConcurrentRequests(t *testing.T) {
	// A paused dispatcher lets several small merges pile up in the
	// queue; on release they must execute as coalesced rounds,
	// observable via batch_rounds/batch_pairs metrics.
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	release, _ := blockPool(t, s)
	rng := rand.New(rand.NewSource(6))
	const n = 16
	type result struct {
		code int
		got  MergeResponse
		a, b []int64
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		a := sortedInt64(rng, 50+rng.Intn(100))
		b := sortedInt64(rng, 50+rng.Intn(100))
		go func(a, b []int64) {
			var got MergeResponse
			code := post(t, ts, "/v1/merge", MergeRequest{A: a, B: b}, &got)
			results <- result{code, got, a, b}
		}(a, b)
	}
	time.Sleep(20 * time.Millisecond) // let requests reach the queue
	close(release)
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.code)
		}
		if !verify.Equal(r.got.Result, verify.ReferenceMerge(r.a, r.b)) {
			t.Fatalf("request %d: wrong merge", i)
		}
	}
	snap := s.Metrics().snapshot(s.pool)
	if snap.Pool.BatchRounds == 0 || snap.Pool.BatchPairs == 0 {
		t.Fatalf("no coalesced rounds recorded: %+v", snap.Pool)
	}
	if snap.Pool.PairsPerRound <= 1 {
		t.Errorf("expected coalescing >1 pair per round, got %.2f (rounds=%d pairs=%d)",
			snap.Pool.PairsPerRound, snap.Pool.BatchRounds, snap.Pool.BatchPairs)
	}
	if len(snap.Pool.LastRoundLoad) == 0 {
		t.Error("last round loads missing")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	// Generate a little traffic, then check the snapshot document.
	for i := 0; i < 5; i++ {
		post(t, ts, "/v1/merge", MergeRequest{A: []int64{1, 3}, B: []int64{2}}, nil)
	}
	post(t, ts, "/v1/merge", MergeRequest{A: []int64{9, 1}, B: nil}, nil) // 400
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	em := snap.Endpoints["merge"]
	if em.Count != 6 || em.Err4xx != 1 {
		t.Errorf("merge endpoint: count=%d err4xx=%d, want 6/1", em.Count, em.Err4xx)
	}
	if em.Latency.Count != 5 || em.Latency.P95MS < em.Latency.P50MS {
		t.Errorf("latency histogram off: %+v", em.Latency)
	}
	if snap.Pool.Workers != s.Workers() || snap.Queue.Capacity == 0 {
		t.Errorf("pool/queue snapshot off: %+v %+v", snap.Pool, snap.Queue)
	}
}

func TestEndpointLabels(t *testing.T) {
	// Every /v1 route must have a metrics slot — a new endpoint without
	// one silently drops its observations.
	m := NewMetrics()
	for _, name := range endpointNames {
		if _, ok := m.req.endpoints[name]; !ok {
			t.Errorf("endpoint %q missing from metrics registry", name)
		}
	}
	m.req.Observe("nonexistent", 200, time.Millisecond) // must not panic
}

func BenchmarkServeMergeSmall(b *testing.B) {
	s := New(Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	rng := rand.New(rand.NewSource(7))
	a := sortedInt64(rng, 256)
	bb := sortedInt64(rng, 256)
	body, _ := json.Marshal(MergeRequest{A: a, B: bb})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("POST", "/v1/merge", bytes.NewReader(body))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
}

func ExampleServer() {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := strings.NewReader(`{"a":[1,3,5],"b":[2,4,6]}`)
	resp, _ := http.Post(ts.URL+"/v1/merge", "application/json", body)
	var out MergeResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	fmt.Println(out.Result)
	// Output: [1 2 3 4 5 6]
}

package server

import (
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"a":[1,3],"b":[2,4]}`

	// No inbound ID: the server must mint one and echo it.
	resp, err := ts.Client().Post(ts.URL+"/v1/merge", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id == "" {
		t.Error("server did not assign an X-Request-Id")
	}
	st := resp.Header.Get("Server-Timing")
	for _, stage := range []string{StageDecode, StageQueueWait, StageExecute} {
		if !strings.Contains(st, stage+";dur=") {
			t.Errorf("Server-Timing missing %s span: %q", stage, st)
		}
	}
	// The write span cannot appear: the header is sent before the body.
	if strings.Contains(st, StageWrite+";dur=") {
		t.Errorf("Server-Timing must not carry the write span: %q", st)
	}

	// Inbound ID: honoured and echoed verbatim.
	req, err := http.NewRequest("POST", ts.URL+"/v1/merge", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "caller-supplied-42")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id != "caller-supplied-42" {
		t.Errorf("inbound request ID not echoed: got %q", id)
	}
}

func TestLargeMergeServerTimingHasRoundSpans(t *testing.T) {
	// The whole-pool path must attribute its round: partition (co-rank
	// searches) and merge (merge steps) spans in the response header.
	_, ts := newTestServer(t, Config{CoalesceLimit: 64, Workers: 4})
	rng := rand.New(rand.NewSource(21))
	a, b := sortedInt64(rng, 3000), sortedInt64(rng, 3000)
	buf := `{"a":[` + joinInt64(a) + `],"b":[` + joinInt64(b) + `]}`
	resp, err := ts.Client().Post(ts.URL+"/v1/merge", "application/json", strings.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := resp.Header.Get("Server-Timing")
	for _, stage := range []string{StagePartition, StageMerge} {
		if !strings.Contains(st, stage+";dur=") {
			t.Errorf("large merge Server-Timing missing %s: %q", stage, st)
		}
	}
}

// joinInt64 renders a JSON array body fragment ("1,2,3") for raw
// requests that need header control.
func joinInt64(s []int64) string {
	var b strings.Builder
	for i, v := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(v, 10))
	}
	return b.String()
}

// TestTraceSpansConcurrent hammers both execution paths from many
// goroutines so `go test -race` exercises concurrent span recording
// (handler goroutine + dispatcher writing the same Trace) and
// concurrent stage-histogram observation. It also asserts minted
// request IDs never collide.
func TestTraceSpansConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{CoalesceLimit: 512, Workers: 4, QueueDepth: 256})
	const goroutines, perG = 8, 24

	var (
		mu  sync.Mutex
		ids = make(map[string]bool)
	)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				var path, body string
				switch i % 3 {
				case 0: // coalesced small merge
					path = "/v1/merge"
					body = `{"a":[` + joinInt64(sortedInt64(rng, 40)) + `],"b":[` + joinInt64(sortedInt64(rng, 40)) + `]}`
				case 1: // uncoalesced whole-pool merge
					path = "/v1/merge"
					body = `{"a":[` + joinInt64(sortedInt64(rng, 400)) + `],"b":[` + joinInt64(sortedInt64(rng, 400)) + `]}`
				default: // sort (run-sort + merge-round spans)
					path = "/v1/sort"
					data := make([]int64, 500)
					for j := range data {
						data[j] = rng.Int63n(1000)
					}
					body = `{"data":[` + joinInt64(data) + `]}`
				}
				resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", path, resp.StatusCode)
				}
				id := resp.Header.Get("X-Request-Id")
				if id == "" {
					t.Error("missing X-Request-Id under load")
				}
				mu.Lock()
				if ids[id] {
					t.Errorf("request ID %q served twice", id)
				}
				ids[id] = true
				mu.Unlock()
				if resp.Header.Get("Server-Timing") == "" {
					t.Error("missing Server-Timing under load")
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The server folds a request's spans into the stage histograms after
	// writing its response, so wait for the last ones to land.
	total := uint64(goroutines * perG)
	pollUntil(t, "every execute span to be observed", func() bool {
		return s.Snapshot().Stages[StageExecute].Count >= total
	})
	snap := s.Snapshot()
	if got := snap.Stages[StageExecute].Count; got != total {
		t.Errorf("execute spans = %d, want %d", got, total)
	}
	for _, stage := range []string{StageDecode, StageQueueWait, StagePartition, StageMerge, StageWrite} {
		if snap.Stages[stage].Count == 0 {
			t.Errorf("stage %q never observed under mixed load", stage)
		}
	}
}

// TestLargeMergeImbalanceNearOne is the service-level Theorem 5 check:
// an uncoalesced merge partitioned by diagonal co-ranking must hand
// every worker (|A|+|B|)/p ± 1 elements, so the recorded max/min
// imbalance ratio of the round sits at ~1.0.
func TestLargeMergeImbalanceNearOne(t *testing.T) {
	s, ts := newTestServer(t, Config{CoalesceLimit: 64, Workers: 4})
	rng := rand.New(rand.NewSource(23))
	a, b := sortedInt64(rng, 6000), sortedInt64(rng, 6000)
	if code := post(t, ts, "/v1/merge", MergeRequest{A: a, B: b}, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	snap := s.Snapshot()
	if snap.Pool.RunRounds != 1 {
		t.Fatalf("run rounds = %d, want 1", snap.Pool.RunRounds)
	}
	lr := snap.Pool.LastRound
	if lr.Workers != 4 {
		t.Errorf("round engaged %d workers, want 4", lr.Workers)
	}
	// 12000 elements across 4 workers: 3000 each, ±1 at worst.
	if lr.Imbalance < 1.0 || lr.Imbalance > 1.001 {
		t.Errorf("imbalance = %v, want ~1.0 (Theorem 5); round %+v", lr.Imbalance, lr)
	}
	if lr.Min < 2999 || lr.Max > 3001 {
		t.Errorf("per-worker spread %d..%d, want 3000 +/- 1", lr.Min, lr.Max)
	}
}

func TestTraceNilSafe(t *testing.T) {
	// Jobs submitted without a request (internal tests, warmup) carry a
	// nil trace; every instrumentation point must tolerate it.
	var tr *Trace
	if tr.ID() != "" {
		t.Error("nil trace ID should be empty")
	}
	tr.add(StageMerge, time.Now(), time.Millisecond)
	tr.span(StageDecode, time.Now())
	if tr.Spans() != nil {
		t.Error("nil trace should have no spans")
	}
	if tr.serverTiming() != "" {
		t.Error("nil trace should render no Server-Timing")
	}
}

func TestNextRequestIDUnique(t *testing.T) {
	const n = 1000
	seen := make(map[string]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				id := nextRequestID()
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate request ID %q", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

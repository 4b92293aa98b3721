package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mergepath/internal/core"
	"mergepath/internal/fault"
	"mergepath/internal/verify"
)

// pollUntil spins (with a deadline) until cond holds — for asserting on
// metrics the dispatcher updates asynchronously.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanicIsolation is the tentpole's headline guarantee, run under
// -race by the Makefile race target: a request that panics mid-round
// gets its own 500 while concurrent requests complete normally and the
// daemon stays up.
func TestPanicIsolation(t *testing.T) {
	inj := fault.New(map[string]fault.Rule{"sort": {Panic: 1}}, 1)
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64, Fault: inj})

	const merges, sorts = 8, 2
	var wg sync.WaitGroup
	mergeCodes := make([]int, merges)
	sortCodes := make([]int, sorts)
	for i := 0; i < merges; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, b := []int64{1, 3, 5}, []int64{2, 4, 6}
			var got MergeResponse
			mergeCodes[i] = post(t, ts, "/v1/merge", MergeRequest{A: a, B: b}, &got)
			if mergeCodes[i] == http.StatusOK && !verify.Equal(got.Result, verify.ReferenceMerge(a, b)) {
				t.Error("merge alongside panicking sorts returned wrong bytes")
			}
		}(i)
	}
	for i := 0; i < sorts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sortCodes[i] = post(t, ts, "/v1/sort", SortRequest{Data: []int64{3, 1, 2}}, nil)
		}(i)
	}
	wg.Wait()

	for i, code := range mergeCodes {
		if code != http.StatusOK {
			t.Errorf("concurrent merge %d: status %d, want 200", i, code)
		}
	}
	for i, code := range sortCodes {
		if code != http.StatusInternalServerError {
			t.Errorf("panicking sort %d: status %d, want 500", i, code)
		}
	}

	// The daemon survived: health is green and new work still runs.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panics: %d", resp.StatusCode)
	}
	if code := post(t, ts, "/v1/merge", MergeRequest{A: []int64{1}, B: []int64{2}}, nil); code != http.StatusOK {
		t.Fatalf("post-panic merge: status %d", code)
	}

	snap := s.Snapshot()
	if snap.Pool.PanicsRecovered != sorts {
		t.Errorf("panics_recovered = %d, want %d", snap.Pool.PanicsRecovered, sorts)
	}
	if snap.Endpoints["sort"].Err5xx != sorts {
		t.Errorf("sort err5xx = %d, want %d", snap.Endpoints["sort"].Err5xx, sorts)
	}
}

// TestBatchRoundQuarantine drives a panic out of the batch kernel itself
// (a mis-sized pair reaching core.MergeRound's length check): the
// round must be quarantined so only the poisoned pair's job fails and
// its coalesced round-mates still merge correctly.
func TestBatchRoundQuarantine(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	release, _ := blockPool(t, s)

	bad := &job{done: make(chan error, 1), pair: &core.Pair[int64]{
		A: []int64{1, 2}, B: []int64{3}, Out: make([]int64, 2), // wrong length: panics in the round
	}}
	type goodJob struct {
		j    *job
		a, b []int64
	}
	goods := make([]goodJob, 3)
	for i := range goods {
		a := []int64{int64(i), int64(i + 10)}
		b := []int64{int64(i + 5)}
		goods[i] = goodJob{
			j: &job{done: make(chan error, 1), pair: &core.Pair[int64]{A: a, B: b, Out: make([]int64, 3)}},
			a: a, b: b,
		}
	}
	if err := s.pool.submit(bad); err != nil {
		t.Fatal(err)
	}
	for _, g := range goods {
		if err := s.pool.submit(g.j); err != nil {
			t.Fatal(err)
		}
	}
	close(release)

	var pe *PanicError
	if err := <-bad.done; !errors.As(err, &pe) {
		t.Fatalf("poisoned pair: err %v, want PanicError", err)
	}
	for i, g := range goods {
		if err := <-g.j.done; err != nil {
			t.Fatalf("round-mate %d failed: %v (quarantine must salvage it)", i, err)
		}
		if !verify.Equal(g.j.pair.Out, verify.ReferenceMerge(g.a, g.b)) {
			t.Fatalf("round-mate %d: wrong merge after quarantine", i)
		}
	}
	if n := s.Snapshot().Pool.PanicsRecovered; n == 0 {
		t.Error("panics_recovered not incremented by quarantined round")
	}
}

// TestClientCancelDistinctFromTimeout: a client disconnect must surface
// as the 499-class canceled path with its own counter — never as a 504
// or a timeout metric (the satellite fix for pool.do conflating the two).
func TestClientCancelDistinctFromTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8})
	release, _ := blockPool(t, s)
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/merge",
		strings.NewReader(`{"a":[1],"b":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Wait until the job is actually parked behind the blocker, then
	// abandon it.
	pollUntil(t, "job queued", func() bool { return s.pool.depth() >= 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned a response, want client-side error")
	}
	pollUntil(t, "canceled counter", func() bool { return s.Snapshot().Queue.Canceled == 1 })
	if n := s.Snapshot().Queue.Timeouts; n != 0 {
		t.Errorf("timeouts = %d after a client cancel, want 0 (cancel must not count as timeout)", n)
	}
}

// holdParked is a flushPending hook: it signals parked once, then keeps
// the parked pairs from their round until each one's request context
// ends, so a deadline or a client cancel lands between dequeue and
// flush without a sleep. Every request context ends: RequestTimeout
// bounds it.
func holdParked(parked chan<- struct{}) func([]*job) {
	var once sync.Once
	return func(jobs []*job) {
		once.Do(func() { close(parked) })
		for _, j := range jobs {
			<-j.ctx.Done()
		}
	}
}

// TestPairExpiredAtFlushShed: a coalesced pair whose deadline passes
// between dequeue and flush must be dropped at flush time and counted as
// shed-at-flush, not merged after its client already got 504.
func TestPairExpiredAtFlushShed(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8})
	s.pool.flushPending = holdParked(make(chan struct{}))
	req, err := http.NewRequest("POST", ts.URL+"/v1/merge", strings.NewReader(`{"a":[1],"b":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Timeout-Ms", "40")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (deadline passed before the flush)", resp.StatusCode)
	}
	pollUntil(t, "shed-at-flush counter", func() bool { return s.Snapshot().Queue.ShedAtFlush == 1 })
	if n := s.Snapshot().Pool.BatchRounds; n != 0 {
		t.Errorf("batch_rounds = %d, want 0: the expired pair must not be merged", n)
	}
}

// TestPairCanceledAtFlushShed: the same drop for a client that goes
// away between dequeue and flush — counted as shed-at-flush and as a
// cancel, never as a timeout, and never merged.
func TestPairCanceledAtFlushShed(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8})
	parked := make(chan struct{})
	s.pool.flushPending = holdParked(parked)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/merge", strings.NewReader(`{"a":[1],"b":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-parked
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned a response, want client-side error")
	}
	// The dispatcher and the abandoned handler count independently.
	pollUntil(t, "shed-at-flush and canceled counters", func() bool {
		q := s.Snapshot().Queue
		return q.ShedAtFlush == 1 && q.Canceled == 1
	})
	snap := s.Snapshot()
	if n := snap.Queue.Timeouts; n != 0 {
		t.Errorf("timeouts = %d after a client cancel, want 0", n)
	}
	if n := snap.Pool.BatchRounds; n != 0 {
		t.Errorf("batch_rounds = %d, want 0: the canceled pair must not be merged", n)
	}
}

// smallPair is a parked-pair job merging [1 3] with [2].
func smallPair() *job {
	return &job{done: make(chan error, 1), pair: &core.Pair[int64]{
		A: []int64{1, 3}, B: []int64{2}, Out: make([]int64, 3)}}
}

// TestParkedPairRunsWhenQueueEmpties: no pair waits for a future
// arrival. Behind a blocked pool, a pair is queued ahead of a job that
// is dropped at dequeue; nothing arrives after it, so the drop is what
// empties the queue, and the pair must still run.
func TestParkedPairRunsWhenQueueEmpties(t *testing.T) {
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		drop *job
		want error
	}{
		{"expired", &job{deadline: time.Now().Add(-time.Second)}, ErrDeadline},
		{"canceled", &job{ctx: canceledCtx}, ErrCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
			release, _ := blockPool(t, s)
			pair := smallPair()
			tc.drop.done = make(chan error, 1)
			tc.drop.run = func(context.Context, int) error { return nil }
			for _, j := range []*job{pair, tc.drop} {
				if err := s.pool.submit(j); err != nil {
					t.Fatal(err)
				}
			}
			close(release)
			select {
			case err := <-pair.done:
				if err != nil || !verify.Equal(pair.pair.Out, []int64{1, 2, 3}) {
					t.Fatalf("pair: err %v, out %v", err, pair.pair.Out)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("parked pair did not run within 2s after the job behind it was dropped")
			}
			if err := <-tc.drop.done; !errors.Is(err, tc.want) {
				t.Errorf("dropped job: err %v, want %v", err, tc.want)
			}
		})
	}
}

// TestParkedPairRunsBeforeRunJob: a pair queued ahead of a run job is
// merged before the run job's round starts.
func TestParkedPairRunsBeforeRunJob(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	release, _ := blockPool(t, s)
	pair := smallPair()
	var pairFirst bool
	run := &job{done: make(chan error, 1), run: func(context.Context, int) error {
		pairFirst = len(pair.done) == 1
		return nil
	}}
	for _, j := range []*job{pair, run} {
		if err := s.pool.submit(j); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := <-run.done; err != nil {
		t.Fatal(err)
	}
	if !pairFirst {
		t.Error("run job's round started before the pair queued ahead of it was merged")
	}
	if err := <-pair.done; err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutHeaderValidation: the documented X-Timeout-Ms contract —
// malformed values are 400, large values clamp to the server deadline.
func TestTimeoutHeaderValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 2 * time.Second})
	send := func(header string) int {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/v1/merge", strings.NewReader(`{"a":[1],"b":[2]}`))
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set("X-Timeout-Ms", header)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, bad := range []string{"0", "-5", "abc", "1.5", "1e3", "99999999999999999999999"} {
		if code := send(bad); code != http.StatusBadRequest {
			t.Errorf("X-Timeout-Ms=%q: status %d, want 400", bad, code)
		}
	}
	// Valid values — including ones above the server deadline, which
	// clamp ("lower, not raise") rather than erroring.
	for _, good := range []string{"", "50", "1000", "999999999"} {
		if code := send(good); code != http.StatusOK {
			t.Errorf("X-Timeout-Ms=%q: status %d, want 200", good, code)
		}
	}
}

// TestInjectedErrorIs500 covers the error (non-panic) injection path end
// to end: the job fails with ErrInjected, the handler maps it to 500.
func TestInjectedErrorIs500(t *testing.T) {
	inj := fault.New(map[string]fault.Rule{"setops": {Error: 1}}, 1)
	_, ts := newTestServer(t, Config{Fault: inj})
	code := post(t, ts, "/v1/setops", SetOpsRequest{Op: "union", A: []int64{1}, B: []int64{2}}, nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", code)
	}
	if inj.Errors.Load() != 1 {
		t.Fatalf("injector error count = %d, want 1", inj.Errors.Load())
	}
	// The daemon is unaffected.
	if code := post(t, ts, "/v1/merge", MergeRequest{A: []int64{1}, B: []int64{2}}, nil); code != http.StatusOK {
		t.Fatalf("follow-up merge: status %d", code)
	}
}

// TestCoalescedPairFaultIsolation: an injected panic on the coalescing
// path fails only the faulted pair, not the batch round it would have
// joined.
func TestCoalescedPairFaultIsolation(t *testing.T) {
	inj := fault.New(map[string]fault.Rule{"merge": {Panic: 1}}, 1)
	s, ts := newTestServer(t, Config{Workers: 2, Fault: inj})
	if code := post(t, ts, "/v1/merge", MergeRequest{A: []int64{1}, B: []int64{2}}, nil); code != http.StatusInternalServerError {
		t.Fatalf("faulted merge: status %d, want 500", code)
	}
	pollUntil(t, "panic recovered", func() bool { return s.Snapshot().Pool.PanicsRecovered >= 1 })
	// Sorts are un-faulted and must still work.
	if code := post(t, ts, "/v1/sort", SortRequest{Data: []int64{2, 1}}, nil); code != http.StatusOK {
		t.Fatalf("sort after merge fault: status %d", code)
	}
}

// goid returns the calling goroutine's id as printed in its stack
// header ("goroutine 7 [running]:").
func goid() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestWorkerPanicIsPerJob500 runs a round whose comparator panics only
// on worker 1's goroutine through the pool: the panic must come back to
// the dispatcher's per-job recover as that job's 500, counted, and the
// daemon must keep serving.
func TestWorkerPanicIsPerJob500(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	r := httptest.NewRequest(http.MethodPost, "/v1/merge", nil)
	j := s.newJob("merge", r)
	a, b := make([]int64, 500), make([]int64, 500)
	for i := range a {
		a[i], b[i] = int64(2*i), int64(2*i+1)
	}
	j.elems = len(a) + len(b)
	boom := errors.New("less panicked on worker 1")
	j.run = func(ctx context.Context, _ int) error {
		caller := goid() // the dispatcher: worker 0 of the round
		less := func(x, y int64) bool {
			if goid() != caller {
				panic(boom)
			}
			return x < y
		}
		pairs := []core.Pair[int64]{{A: a, B: b, Out: make([]int64, j.elems)}}
		_, err := core.MergeRoundFunc(ctx, pairs, 2, nil, less)
		return err
	}
	status, err := s.execute(r, j)
	var pe *PanicError
	if status != http.StatusInternalServerError || !errors.As(err, &pe) || pe.Value != boom {
		t.Fatalf("status %d err %v, want 500 carrying the worker's panic", status, err)
	}
	if got := s.Snapshot().Pool.PanicsRecovered; got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
	var got MergeResponse
	if code := post(t, ts, "/v1/merge", MergeRequest{A: a, B: b}, &got); code != http.StatusOK {
		t.Fatalf("merge after the worker panic: status %d", code)
	}
	if !verify.Equal(got.Result, verify.ReferenceMerge(a, b)) {
		t.Fatal("merge after the worker panic returned wrong bytes")
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mergepath/internal/fault"
	"mergepath/internal/overload"
	"mergepath/internal/wire"
)

// pressCtrl drives a controller into the given state using its public
// API: repeated over-target sojourn observations spaced across real
// (tiny) intervals. Returns once the state is reached or the deadline
// passes.
func pressCtrl(t *testing.T, c *overload.Controller, want overload.State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("controller never reached %v (state %v)", want, c.State())
		}
		c.ObserveSojourn(time.Second)
		time.Sleep(2 * time.Millisecond)
	}
}

func TestBrownoutHalvesWorkers(t *testing.T) {
	ctrl := overload.New(overload.Config{Target: time.Millisecond, Interval: 5 * time.Millisecond})
	p := newPool(8, 16, NewMetrics(), ctrl)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = p.close(ctx)
	}()

	if w := p.effectiveWorkers(); w != 8 {
		t.Fatalf("healthy workers = %d, want 8", w)
	}
	pressCtrl(t, ctrl, overload.Degraded)
	if w := p.effectiveWorkers(); w != 4 {
		t.Errorf("degraded workers = %d, want 4", w)
	}
}

// TestOverloadShedsWithComputedRetryAfter drives the server's controller
// to shedding and verifies new requests get 429 with a Retry-After
// derived from the drain-rate estimate, then that the state steps back
// down once the pressure signal stops.
func TestOverloadShedsWithComputedRetryAfter(t *testing.T) {
	// Interval is 25ms so the post-pressure 429 probe comfortably lands
	// before the first recovery step-down (2 good intervals = 50ms).
	s, ts := newTestServer(t, Config{Workers: 2, Overload: overload.Config{
		Target:   time.Millisecond,
		Interval: 25 * time.Millisecond,
	}})
	// Warm the drain-rate estimate with real traffic so the Retry-After
	// is a measurement, not the clamp floor... then apply pressure.
	for i := 0; i < 3; i++ {
		a := []int64{1, 2, 3}
		if code := post(t, ts, "/v1/merge", MergeRequest{A: a, B: a}, nil); code != http.StatusOK {
			t.Fatalf("warmup merge: status %d", code)
		}
	}
	pressCtrl(t, s.ctrl, overload.Shedding)

	buf, _ := json.Marshal(MergeRequest{A: []int64{1}, B: []int64{2}})
	resp, err := ts.Client().Post(ts.URL+"/v1/merge", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d while shedding, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Fatalf("Retry-After %q, want integer in [1,30]", resp.Header.Get("Retry-After"))
	}
	var eresp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eresp.Error, "overloaded") {
		t.Errorf("429 body %q does not name the overload", eresp.Error)
	}
	if s.Snapshot().Queue.Throttled == 0 {
		t.Error("throttled counter did not move")
	}

	// Pressure stops: idle intervals are good, so scrapes alone must walk
	// the machine back to healthy (shedding→degraded→healthy).
	deadline := time.Now().Add(5 * time.Second)
	for s.ctrl.State() != overload.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("never recovered, state %v", s.ctrl.State())
		}
		time.Sleep(5 * time.Millisecond)
		_ = s.ctrl.SnapshotNow()
	}
	if code := post(t, ts, "/v1/merge", MergeRequest{A: []int64{1}, B: []int64{2}}, nil); code != http.StatusOK {
		t.Fatalf("post-recovery merge: status %d, want 200", code)
	}
	snap := s.Snapshot().Overload
	if snap.TransitionsShedding < 1 || snap.TransitionsHealthy < 1 {
		t.Errorf("transition counters degraded=%d shedding=%d healthy=%d, want full cycle",
			snap.TransitionsDegraded, snap.TransitionsShedding, snap.TransitionsHealthy)
	}
}

// TestRunningJobDoesNotShed holds a job's elements in the controller
// through the server's own job hooks for ShedIntervals+1 intervals with
// no request: the request queue is empty, so the node must stay healthy
// and admit. The job still lengthens Retry-After through the backlog.
func TestRunningJobDoesNotShed(t *testing.T) {
	cfg := overload.Config{Target: time.Millisecond, Interval: 10 * time.Millisecond, ShedIntervals: 3}
	s := New(Config{Workers: 2, Overload: cfg})
	t.Cleanup(func() { s.Drain(context.Background()) })
	hooks := s.jobHooks()
	hooks.Enqueue(1 << 20)
	time.Sleep(time.Duration(cfg.ShedIntervals+2) * cfg.Interval)
	if ok, _ := s.ctrl.Admit(); !ok {
		t.Fatal("a request was shed while only a job was running")
	}
	if st := s.ctrl.SnapshotNow(); st.State != "healthy" || st.BacklogElements != 1<<20 {
		t.Fatalf("overload state %+v, want healthy with the job's elements as backlog", st)
	}
	hooks.Done(1 << 20)
}

// TestOverloadTripsUnderInjectedLatency exercises the real signal path:
// fault-injected execution latency makes each sort round hold the
// dispatcher for 30ms, queued jobs accumulate sojourn far over the
// target, and the controller leaves healthy without any test backdoor
// touching it.
func TestOverloadTripsUnderInjectedLatency(t *testing.T) {
	inj, err := fault.Parse("sort:latency=30ms@1", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Fault: inj, Overload: overload.Config{
		Target:   time.Millisecond,
		Interval: 10 * time.Millisecond,
	}})
	// One wave of concurrent sorts: rounds execute serially at 30ms each,
	// so the tail of the wave waits hundreds of ms in the queue.
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, _ := json.Marshal(SortRequest{Data: []int64{3, 1, 2}})
			resp, err := ts.Client().Post(ts.URL+"/v1/sort", "application/json", bytes.NewReader(buf))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	tripped := false
	deadline := time.Now().Add(10 * time.Second)
	for !tripped && time.Now().Before(deadline) {
		var health struct {
			Status string `json:"status"`
		}
		hres, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(hres.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		hres.Body.Close()
		if health.Status == "degraded" || health.Status == "shedding" {
			tripped = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	if !tripped {
		t.Fatal("injected latency never tripped the overload controller")
	}
}

// TestUnsortedInputNamesViolatingIndex pins the one sortedness 400 on
// the default Config: whatever the endpoint and codec, the message names
// the list, the first violating index and both values.
func TestUnsortedInputNamesViolatingIndex(t *testing.T) {
	_, ts := newTestServer(t, Config{Overload: overload.Config{Target: time.Second}})
	jsonBody := func(v any) []byte {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	cases := []struct {
		name, path, ctype string
		body              []byte
		want              string
	}{
		{"json merge", "/v1/merge", "application/json",
			jsonBody(MergeRequest{A: []int64{1, 5, 3, 7}, B: []int64{1}}),
			`input "a" is not sorted: element 2 (3) < element 1 (5)`},
		{"binary float64 mergek", "/v1/mergek", wire.ContentType,
			wire.AppendFloat64(nil, []float64{0.5, 1.5}, []float64{2.5, 3, -1.25, 4}),
			`input "lists[1]" is not sorted: element 2 (-1.25) < element 1 (3)`},
		{"json setops", "/v1/setops", "application/json",
			jsonBody(SetOpsRequest{Op: "union", A: []int64{1, 2}, B: []int64{4, 9, 2}}),
			`input "b" is not sorted: element 2 (2) < element 1 (9)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, _, body := doRaw(t, ts, tc.path, tc.ctype, "application/json", tc.body)
			if st != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", st, body)
			}
			var eresp ErrorResponse
			if err := json.Unmarshal(body, &eresp); err != nil {
				t.Fatal(err)
			}
			if eresp.Error != tc.want {
				t.Errorf("400 message %q, want %q", eresp.Error, tc.want)
			}
		})
	}
}

// TestQueueFullCarriesRetryAfter pins satellite 1: hard 503s (queue
// full) now carry the computed Retry-After header too.
func TestQueueFullCarriesRetryAfter(t *testing.T) {
	// One worker, depth-1 queue, and a fault that parks every round for
	// 50ms: the queue overflows almost immediately.
	inj, err := fault.Parse("*:latency=50ms@1", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Fault: inj,
		Overload: overload.Config{Target: time.Second}})
	buf, _ := json.Marshal(SortRequest{Data: []int64{3, 1, 2}})
	saw503 := false
	deadline := time.Now().Add(5 * time.Second)
	for !saw503 && time.Now().Before(deadline) {
		results := make(chan *http.Response, 6)
		for i := 0; i < 6; i++ {
			go func() {
				resp, err := ts.Client().Post(ts.URL+"/v1/sort", "application/json", bytes.NewReader(buf))
				if err != nil {
					results <- nil
					return
				}
				results <- resp
			}()
		}
		for i := 0; i < 6; i++ {
			resp := <-results
			if resp == nil {
				continue
			}
			if resp.StatusCode == http.StatusServiceUnavailable {
				saw503 = true
				if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
					t.Errorf("503 Retry-After %q, want integer >= 1", resp.Header.Get("Retry-After"))
				}
			}
			resp.Body.Close()
		}
	}
	if !saw503 {
		t.Fatal("queue never overflowed into a 503")
	}
}

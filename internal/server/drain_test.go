package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"mergepath/internal/verify"
)

// TestGracefulDrain verifies the shutdown contract: work admitted before
// Drain completes and is answered 200; work arriving after Drain begins
// is refused with 503; Drain returns only once the queue is empty.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 64})
	ts := newRawServer(t, s)
	release, _ := blockPool(t, s)

	// Admit a deterministic set of in-flight requests behind the blocker.
	const n = 12
	rng := rand.New(rand.NewSource(8))
	var wg sync.WaitGroup
	codes := make([]int, n)
	results := make([]MergeResponse, n)
	inputs := make([]MergeRequest, n)
	for i := 0; i < n; i++ {
		inputs[i] = MergeRequest{A: sortedInt64(rng, 80), B: sortedInt64(rng, 120)}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = post(t, ts, "/v1/merge", inputs[i], &results[i])
		}(i)
	}
	// Wait until all n jobs are actually queued (blocker holds the round).
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.depth() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs queued", s.pool.depth(), n)
		}
		time.Sleep(time.Millisecond)
	}

	// Begin the drain concurrently, then let the pool go.
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()
	time.Sleep(5 * time.Millisecond) // let Drain set the flag and close the queue
	close(release)

	wg.Wait()
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Errorf("in-flight request %d: status %d, want 200 (drain must finish admitted work)", i, codes[i])
			continue
		}
		if !verify.Equal(results[i].Result, verify.ReferenceMerge(inputs[i].A, inputs[i].B)) {
			t.Errorf("in-flight request %d: wrong merge after drain", i)
		}
	}

	// After the drain: new work refused, health reports draining.
	if code := post(t, ts, "/v1/merge", MergeRequest{A: []int64{1}, B: []int64{2}}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second drain must be a no-op, got %v", err)
	}
}

// TestConcurrentHammer drives the daemon from 32 goroutines across every
// endpoint at once; run under -race (the Makefile race target includes
// this package). Sheds — hard 503s from the bounded queue or adaptive
// 429s from the overload controller — are legal under this load; wrong
// bytes are not.
func TestConcurrentHammer(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 128, CoalesceLimit: 1 << 10})
	ts := newRawServer(t, s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})

	const workers = 32
	const perWorker = 12
	var ok, shed, bad int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				var code int
				var wrong bool
				switch w % 4 {
				case 0, 1: // merge, mixed sizes so both pool paths run
					n := 50 + rng.Intn(200)
					if i%5 == 0 {
						n = 2000 // output 4000 > CoalesceLimit: partitioned path
					}
					a, b := sortedInt64(rng, n), sortedInt64(rng, n)
					var got MergeResponse
					code = post(t, ts, "/v1/merge", MergeRequest{A: a, B: b}, &got)
					wrong = code == http.StatusOK && !verify.Equal(got.Result, verify.ReferenceMerge(a, b))
				case 2: // mergek
					lists := make([][]int64, 3+rng.Intn(3))
					var all []int64
					for j := range lists {
						lists[j] = sortedInt64(rng, 50+rng.Intn(50))
						all = append(all, lists[j]...)
					}
					var got MergeKResponse
					code = post(t, ts, "/v1/mergek", MergeKRequest{Lists: lists}, &got)
					wrong = code == http.StatusOK &&
						(!verify.Sorted(got.Result) || !verify.SameMultiset(got.Result, all))
				case 3: // metrics reads race against everything else
					resp, err := ts.Client().Get(ts.URL + "/metrics")
					if err != nil {
						t.Error(err)
						return
					}
					var snap MetricsSnapshot
					if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
						t.Errorf("metrics decode: %v", err)
					}
					resp.Body.Close()
					code = resp.StatusCode
				}
				mu.Lock()
				switch {
				case wrong:
					bad++
				case code == http.StatusOK:
					ok++
				case code == http.StatusServiceUnavailable,
					code == http.StatusTooManyRequests:
					shed++
				default:
					bad++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if bad != 0 {
		t.Fatalf("%d bad responses (ok=%d shed=%d)", bad, ok, shed)
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	t.Logf("hammer: ok=%d shed=%d", ok, shed)
}

package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mergepath/internal/verify"
)

// goid returns the calling goroutine's id as printed in its stack
// header ("goroutine 7 [running]:"). Tests use it to tell worker 0,
// which runs on the caller, from the spawned workers.
func goid() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// panicOffCaller returns a less that panics with val whenever it runs on
// a goroutine other than the one that built it: with p = 2, only on
// worker 1.
func panicOffCaller(val any) func(x, y int64) bool {
	caller := goid()
	return func(x, y int64) bool {
		if goid() != caller {
			panic(val)
		}
		return x < y
	}
}

// TestMergeRoundFuncWorkerPanicReachesCaller: a comparator that panics
// only on worker 1's goroutine must surface as a panic on the caller,
// carrying the original value, after the round's workers have stopped;
// the next round runs normally.
func TestMergeRoundFuncWorkerPanicReachesCaller(t *testing.T) {
	a, b := make([]int64, 200), make([]int64, 200)
	for i := range a {
		a[i], b[i] = int64(2*i), int64(2*i+1)
	}
	out := make([]int64, len(a)+len(b))
	pairs := []Pair[int64]{{A: a, B: b, Out: out}}
	boom := errors.New("less panicked on worker 1")
	got := func() (v any) {
		defer func() { v = recover() }()
		_, _ = MergeRoundFunc(context.Background(), pairs, 2, nil, panicOffCaller(boom))
		return nil
	}()
	if got != boom {
		t.Fatalf("caller recovered %v, want the worker's panic value", got)
	}
	less := func(x, y int64) bool { return x < y }
	if _, err := MergeRoundFunc(context.Background(), pairs, 2, nil, less); err != nil {
		t.Fatal(err)
	}
	if !verify.Equal(out, verify.ReferenceMerge(a, b)) {
		t.Fatal("round after a recovered panic merged wrong")
	}
}

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestFork pins the fan-out contract: every worker runs once, worker 0
// on the caller and the rest elsewhere; a panic from any worker is
// re-raised on the caller, the first one caught, only after every
// worker has returned; p < 1 runs nothing.
func TestFork(t *testing.T) {
	caller := goid()
	var ran [4]atomic.Int32
	var onCaller [4]bool
	Fork(4, func(w int) { // no panic: returns normally
		ran[w].Add(1)
		onCaller[w] = goid() == caller
	})
	for w := range ran {
		if ran[w].Load() != 1 || onCaller[w] != (w == 0) {
			t.Fatalf("worker %d ran %d times, on caller %v", w, ran[w].Load(), onCaller[w])
		}
	}

	for _, p := range []int{0, -1} {
		Fork(p, func(int) { t.Errorf("p=%d ran a worker", p) })
	}

	// Relayed from the caller's worker and from spawned ones, and only
	// once the slow workers have finished.
	for boom := 0; boom < 3; boom++ {
		var slowDone atomic.Int32
		got := recovered(func() {
			Fork(3, func(w int) {
				if w == boom {
					panic(w)
				}
				time.Sleep(20 * time.Millisecond)
				slowDone.Add(1)
			})
		})
		if got != boom {
			t.Fatalf("worker %d panicked, caller recovered %v", boom, got)
		}
		if n := slowDone.Load(); n != 2 {
			t.Fatalf("worker %d's panic re-raised while %d of 2 other workers still ran", boom, 2-n)
		}
	}

	// Worker 1 panics first; worker 0 waits until worker 1's goroutine
	// has exited (so its panic has been caught) and then panics too.
	before := runtime.NumGoroutine()
	got := recovered(func() {
		Fork(2, func(w int) {
			if w == 1 {
				panic("first")
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			panic("second")
		})
	})
	if got != "first" {
		t.Fatalf("Fork re-raised %v, want the first caught value", got)
	}
}

package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

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

func TestPanicRelay(t *testing.T) {
	var quiet PanicRelay
	func() {
		defer quiet.Catch()
	}()
	quiet.Rethrow() // no panic caught: returns

	var r PanicRelay
	for _, v := range []string{"first", "second"} {
		func() {
			defer r.Catch()
			panic(v)
		}()
	}
	got := func() (v any) {
		defer func() { v = recover() }()
		r.Rethrow()
		return nil
	}()
	if got != "first" {
		t.Fatalf("Rethrow raised %v, want the first caught value", got)
	}
}

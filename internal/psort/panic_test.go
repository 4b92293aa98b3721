package psort

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// goid returns the calling goroutine's id as printed in its stack
// header ("goroutine 7 [running]:").
func goid() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestSortFuncWorkerPanicReachesCaller: a comparator that panics only
// off the calling goroutine (worker 1 at p = 2, in phase 1 or in a
// phase-2 round) must surface as a panic on the caller with the
// original value; the next sort runs normally.
func TestSortFuncWorkerPanicReachesCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := make([]int64, 1024)
	for i := range s {
		s[i] = rng.Int63()
	}
	boom := errors.New("less panicked on worker 1")
	caller := goid()
	got := func() (v any) {
		defer func() { v = recover() }()
		SortFunc(slices.Clone(s), 2, func(x, y int64) bool {
			if goid() != caller {
				panic(boom)
			}
			return x < y
		})
		return nil
	}()
	if got != boom {
		t.Fatalf("caller recovered %v, want the worker's panic value", got)
	}
	want := slices.Clone(s)
	slices.Sort(want)
	SortFunc(s, 2, func(x, y int64) bool { return x < y })
	if !slices.Equal(s, want) {
		t.Fatal("sort after a recovered panic is wrong")
	}
}

package kway

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestCoRankWindowPanicReachesCaller feeds co-rank merges float64 runs
// with a NaN inside, outside the package's sorted-input contract. Some
// of those inputs make a window's loser tree index past its output,
// in a worker goroutine; that panic must reach the caller as a
// recoverable runtime error instead of killing the process.
func TestCoRankWindowPanicReachesCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	panics := 0
	for trial := 0; trial < 2000; trial++ {
		k, p := 2+rng.Intn(6), 2+rng.Intn(3)
		lists := make([][]float64, k)
		total := 0
		for i := range lists {
			l := make([]float64, 1+rng.Intn(300))
			for j := range l {
				l[j] = float64(rng.Intn(1000))
			}
			slices.Sort(l)
			if rng.Intn(2) == 0 {
				l[rng.Intn(len(l))] = math.NaN()
			}
			lists[i] = l
			total += len(l)
		}
		got := func() (v any) {
			defer func() { v = recover() }()
			MergeIntoStats(make([]float64, total), lists, p, StrategyCoRank)
			return nil
		}()
		if got != nil {
			if _, ok := got.(runtime.Error); !ok {
				t.Fatalf("trial %d: recovered %v, want a runtime error", trial, got)
			}
			panics++
		}
	}
	if panics == 0 {
		t.Fatal("no trial panicked; the test no longer reaches a worker panic")
	}
}

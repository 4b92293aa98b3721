package kway

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"mergepath/internal/core"
)

// countdownCtx is a cancelable context whose Err turns to
// context.Canceled from its n-th call on, so a merge is canceled at a
// fixed window boundary with no timing involved.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return make(chan struct{}) } // cancelable
func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestMergeSubWindowsMatchHeap: cutting each worker's range into
// windows of span elements, each cut with CoRank, must not move a byte,
// for any span down to one element, every strategy and p up to 4.
func TestMergeSubWindowsMatchHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(12)
		lists := genLists(rng, k, 150, int32(1+rng.Intn(64)))
		want := HeapMerge(lists)
		for _, span := range []int{1, 7, 64, 1 << 16} {
			for p := 1; p <= 4; p++ {
				for _, strat := range strategies {
					ws := make([]core.WorkerStat, p)
					got, st, err := mergeInto(ctx, make([]int32, len(want)), lists, p, strat, ws, span)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("k=%d span=%d p=%d %v: differs from HeapMerge", k, span, p, strat)
					}
					if len(want) > 0 && k > 2 {
						sum := 0
						for _, w := range ws[:st.Workers] {
							sum += w.Elements
						}
						if sum != len(want) {
							t.Fatalf("k=%d span=%d p=%d %v: worker stats count %d elements, want %d", k, span, p, strat, sum, len(want))
						}
					}
				}
			}
		}
	}
}

// eightRuns is a k = 8 merge large enough for several 64K windows per
// worker at p = 3.
func eightRuns() ([][]int64, int) {
	rng := rand.New(rand.NewSource(32))
	lists := make([][]int64, 8)
	total := 0
	for i := range lists {
		lists[i] = sortedList(rng, 1<<16+rng.Intn(1<<12), 1<<40)
		total += len(lists[i])
	}
	return lists, total
}

// TestMergeIntoCtxPreCanceled: a merge whose ctx is already done writes
// nothing and returns ctx.Err().
func TestMergeIntoCtxPreCanceled(t *testing.T) {
	lists, total := eightRuns()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]int64, total)
	for i := range dst {
		dst[i] = -1
	}
	if _, _, err := MergeIntoCtx(ctx, dst, lists, 3, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, v := range dst {
		if v != -1 {
			t.Fatalf("pre-canceled merge wrote dst[%d]", i)
		}
	}
}

// TestMergeIntoCtxMidFlightCancel: a k = 8 merge at p = 3 canceled
// after a few windows stops short, reports only the elements written
// and returns ctx.Err(); an uncanceled one under the same
// cancelable-context shape writes everything.
func TestMergeIntoCtxMidFlightCancel(t *testing.T) {
	lists, total := eightRuns()
	ctx := newCountdownCtx(3) // the up-front check and two window checks
	_, st, err := MergeIntoCtx(ctx, make([]int64, total), lists, 3, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done := 0
	for _, n := range st.PerWorker {
		done += n
	}
	if st.Strategy != StrategyCoRank || done == 0 || done >= total {
		t.Fatalf("%v wrote %d of %d elements, want a partial co-rank merge", st.Strategy, done, total)
	}
	got, _, err := MergeIntoCtx(newCountdownCtx(1<<30), make([]int64, total), lists, 3, nil)
	if err != nil || !slices.Equal(got, HeapMerge(lists)) {
		t.Fatalf("uncanceled merge: err %v or output differs from HeapMerge", err)
	}
}

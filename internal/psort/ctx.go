package psort

import (
	"cmp"
	"context"
	"sync/atomic"
	"time"

	"mergepath/internal/core"
	"mergepath/internal/stats"
)

// maxRunElems caps the phase-1 run length, so cancellation is observed
// between runs as well as between the round's merge chunks, and so a
// run's sort stays cache-sized. Matches core's chunking granularity.
const maxRunElems = 1 << 16

// SortStats reports what an instrumented SortCtxStats run did: how the
// work decomposed (runs, merge rounds) and where the time went. RunSort
// and Search/Merge are cumulative worker time (summed across concurrent
// workers, not wall time), so Search/Merge is directly the partition
// overhead ratio the paper argues is negligible. MaxImbalance is the
// worst per-round max/min elements-per-worker ratio observed across all
// phase-2 merge rounds — ~1.0 when the merge-path balance guarantee
// holds.
type SortStats struct {
	// Runs is the number of phase-1 sequential runs sorted.
	Runs int
	// MergeRounds is the number of phase-2 pairwise merge rounds.
	MergeRounds int
	// RunSort is cumulative worker time spent sequentially sorting
	// phase-1 runs: with the radix leaf for []int64 runs of at least
	// radixMinRun (2048) elements, with the merge-sort leaf otherwise.
	RunSort time.Duration
	// Search is cumulative worker time spent in diagonal (co-rank)
	// searches across all phase-2 merges.
	Search time.Duration
	// Merge is cumulative worker time spent executing merge steps
	// across all phase-2 merges.
	Merge time.Duration
	// MaxImbalance is the worst per-round load-imbalance ratio
	// (max/min elements per engaged worker) across merge rounds; 0 if
	// no merge round ran.
	MaxImbalance float64
}

// SortCtx is Sort with cooperative cancellation: a canceled or expired
// ctx stops the sort at the next run or chunk boundary instead of
// running the full O(n log n) to completion. Workers pull phase-1 runs
// from a shared counter and check ctx between runs; every phase-2 round
// is a core.MergeRound, which checks ctx every 64K output elements.
//
// Returns nil when s is fully sorted and ctx.Err() when the sort was
// abandoned — s then holds an unspecified intermediate state (it may not
// even be a permutation of the input, since ping-pong rounds were
// interrupted mid-merge) and must be discarded. Like Sort, the result is
// stable and p < 1 panics.
func SortCtx[T cmp.Ordered](ctx context.Context, s []T, p int) error {
	_, err := sortRounds(ctx, s, p, false, seqSort[T], core.MergeRound[T])
	return err
}

// SortCtxStats is SortCtx plus observability: the identical cancellable
// sort, additionally reporting the phase/time decomposition and the
// worst per-round load imbalance (see SortStats). Stats are returned
// even when the sort was abandoned, covering the work done so far.
func SortCtxStats[T cmp.Ordered](ctx context.Context, s []T, p int) (SortStats, error) {
	return sortRounds(ctx, s, p, true, seqSort[T], core.MergeRound[T])
}

// sortRounds is the one ping-pong engine behind Sort, SortFunc, SortCtx
// and SortCtxStats. Phase 1 sorts runs of at most maxRunElems elements
// with seq; phase 2 merges neighbouring runs level by level, each level
// one balanced round over all of its pairs, ping-ponging between s and a
// scratch buffer. A level with an odd run count carries the last run as
// a pair with an empty B, so the carry is balanced work too. timed
// selects whether per-phase timing and per-round load summaries are
// collected.
func sortRounds[T any](ctx context.Context, s []T, p int, timed bool, seq func(s, scratch []T),
	round func(ctx context.Context, pairs []core.Pair[T], p int, ws []core.WorkerStat) ([]core.WorkerStat, error)) (SortStats, error) {
	var st SortStats
	if p < 1 {
		panic("psort: worker count must be positive")
	}
	n := len(s)
	if n < 2 {
		return st, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	p = min(p, n)
	runLen := min((n+p-1)/p, maxRunElems)
	st.Runs = (n + runLen - 1) / runLen
	scratch := make([]T, n)
	if err := sortRuns(ctx, s, scratch, runLen, min(p, st.Runs), &st, timed, seq); err != nil {
		return st, err
	}

	var ws []core.WorkerStat
	if timed {
		ws = make([]core.WorkerStat, p)
	}
	pairs := make([]core.Pair[T], 0, (st.Runs+1)/2)
	src, dst := s, scratch
	for width := runLen; width < n; width *= 2 {
		pairs = pairs[:0]
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			pairs = append(pairs, core.Pair[T]{A: src[lo:mid], B: src[mid:hi], Out: dst[lo:hi]})
		}
		got, err := round(ctx, pairs, p, ws)
		st.MergeRounds++
		if timed {
			for _, w := range got {
				st.Search += w.Search
				st.Merge += w.Merge
			}
			st.MaxImbalance = max(st.MaxImbalance, stats.SummarizeWorkers(got).Imbalance)
		}
		if err != nil {
			return st, err
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	return st, nil
}

// sortRuns is phase 1: p workers pull runLen-element runs of s from a
// shared counter and sort each with seq, checking ctx between runs.
func sortRuns[T any](ctx context.Context, s, scratch []T, runLen, p int, st *SortStats, timed bool, seq func(s, scratch []T)) error {
	var stop atomic.Bool
	var runSortNanos, next atomic.Int64
	core.Fork(p, func(int) {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		for !stop.Load() {
			if ctx.Err() != nil {
				stop.Store(true)
				break
			}
			lo := int(next.Add(1)-1) * runLen
			if lo >= len(s) {
				break
			}
			hi := min(lo+runLen, len(s))
			seq(s[lo:hi], scratch[lo:hi])
		}
		if timed {
			runSortNanos.Add(int64(time.Since(t0)))
		}
	})
	st.RunSort = time.Duration(runSortNanos.Load())
	if stop.Load() {
		return ctx.Err()
	}
	return nil
}

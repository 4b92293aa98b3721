package psort

import (
	"cmp"
	"context"
	"sync/atomic"
	"time"

	"mergepath/internal/core"
	"mergepath/internal/kway"
	"mergepath/internal/stats"
)

// maxRunElems caps the phase-1 run length: 2 MiB of int64, so a run's
// sort is the coarsest step at which a canceled sort stops. Phase 1 cuts
// R = p·⌈n/(p·maxRunElems)⌉ equal runs, so every worker sorts the same
// number of runs, and any n up to p·maxRunElems is exactly p runs. The
// radix leaf costs about the same per element from 64K up to 1M
// elements, so a smaller cap would buy only more runs to merge.
const maxRunElems = 1 << 18

// SortStats reports what a sort did: how the work decomposed (runs,
// merge pass) and where the time went. RunSort and Search/Merge are
// cumulative worker time (summed across concurrent workers, not wall
// time), so Search/Merge is directly the partition overhead ratio the
// paper argues is negligible. MaxImbalance is the max/min
// elements-per-worker ratio of the phase-2 merge pass — ~1.0 when the
// merge-path balance guarantee holds.
type SortStats struct {
	// Runs is the number of phase-1 sequential runs sorted, a multiple
	// of the worker count.
	Runs int
	// MergeRounds is the number of phase-2 merge passes: 1 when there
	// was more than one run, else 0.
	MergeRounds int
	// RunSort is cumulative worker time spent sequentially sorting
	// phase-1 runs: with the radix leaf for []int64 runs of at least
	// radixMinRun (2048) elements, with the merge-sort leaf otherwise.
	RunSort time.Duration
	// Search is cumulative worker time spent in co-rank searches in the
	// phase-2 merge pass.
	Search time.Duration
	// Merge is cumulative worker time spent executing merge steps in
	// the phase-2 merge pass.
	Merge time.Duration
	// MaxImbalance is the phase-2 load-imbalance ratio (max/min
	// elements per engaged worker); 0 if no merge ran.
	MaxImbalance float64
}

// SortCtx is Sort with cooperative cancellation: a canceled or expired
// ctx stops the sort at the next run or window boundary instead of
// running the full O(n log n) to completion. Workers pull phase-1 runs
// from a shared counter and check ctx between runs; the phase-2 merge
// checks it every 64K output elements per worker.
//
// Returns nil when s is fully sorted and ctx.Err() when the sort was
// abandoned — s then holds an unspecified intermediate state and must
// be discarded. Like Sort, the result is stable and p < 1 panics.
func SortCtx[T cmp.Ordered](ctx context.Context, s []T, p int) error {
	_, err := SortCtxStats(ctx, s, p)
	return err
}

// SortCtxStats is SortCtx plus observability: the identical cancellable
// sort, additionally reporting the phase/time decomposition and the
// merge pass's load imbalance (see SortStats). Stats are returned even
// when the sort was abandoned, covering the work done so far.
func SortCtxStats[T cmp.Ordered](ctx context.Context, s []T, p int) (SortStats, error) {
	return sortInPlace(ctx, s, p, maxRunElems, seqSort[T], mergeRuns[T])
}

// SortInto is SortCtxStats for a caller that lends the output buffer:
// it sorts s into dst, which must have len(s) elements and must not
// overlap s, with no n-element allocation of its own. s is the run
// storage: on return it holds sorted runs, not the input. On a canceled
// sort dst holds an unspecified state and ctx.Err() is returned.
func SortInto[T cmp.Ordered](ctx context.Context, dst, s []T, p int) (SortStats, error) {
	return sortInto(ctx, dst, s, p, maxRunElems, seqSort[T], mergeRuns[T])
}

// mergeRuns is phase 2 for cmp.Ordered: one co-ranked k-way pass, or
// one merge-path round for two runs.
func mergeRuns[T cmp.Ordered](ctx context.Context, dst []T, runs [][]T, p int, ws []core.WorkerStat) ([]core.WorkerStat, error) {
	_, st, err := kway.MergeIntoCtx(ctx, dst, runs, p, ws)
	return ws[:st.Workers], err
}

// mergePass is phase 2: it merges runs into dst with p workers,
// timing them into ws, and returns the stats of the workers engaged.
type mergePass[T any] func(ctx context.Context, dst []T, runs [][]T, p int, ws []core.WorkerStat) ([]core.WorkerStat, error)

// sortInPlace is sortInto with the result copied back into s, for the
// allocating wrappers.
func sortInPlace[T any](ctx context.Context, s []T, p, runCap int, seq func(s, scratch []T), merge mergePass[T]) (SortStats, error) {
	dst := make([]T, len(s))
	st, err := sortInto(ctx, dst, s, p, runCap, seq, merge)
	if err == nil {
		copy(s, dst)
	}
	return st, err
}

// sortInto is the one engine behind every sort here. Phase 1 cuts s
// into Runs = p·⌈n/(p·runCap)⌉ equal runs and sorts each in place with
// seq, using the same span of dst as scratch. Phase 2 merges all runs
// into dst in one pass with merge; a single run is copied. Every
// caller passes maxRunElems as runCap but the tests, which reach the
// same run shapes at small sizes.
func sortInto[T any](ctx context.Context, dst, s []T, p, runCap int, seq func(s, scratch []T), merge mergePass[T]) (SortStats, error) {
	var st SortStats
	if p < 1 {
		panic("psort: worker count must be positive")
	}
	n := len(s)
	if len(dst) != n {
		panic("psort: destination length differs from input length")
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	if n < 2 {
		copy(dst, s)
		return st, nil
	}
	p = min(p, n)
	r := p * ((n + p*runCap - 1) / (p * runCap))
	st.Runs = r
	if err := sortRuns(ctx, s, dst, r, p, &st, seq); err != nil {
		return st, err
	}
	if r == 1 {
		copy(dst, s)
		return st, nil
	}
	runs := make([][]T, r)
	for i := range runs {
		runs[i] = s[i*n/r : (i+1)*n/r]
	}
	ws, err := merge(ctx, dst, runs, p, make([]core.WorkerStat, p))
	st.MergeRounds = 1
	for _, w := range ws {
		st.Search += w.Search
		st.Merge += w.Merge
	}
	st.MaxImbalance = stats.SummarizeWorkers(ws).Imbalance
	return st, err
}

// sortRuns is phase 1: p workers pull the r equal runs of s from a
// shared counter and sort each with seq, using the run's span of
// scratch, checking ctx between runs.
func sortRuns[T any](ctx context.Context, s, scratch []T, r, p int, st *SortStats, seq func(s, scratch []T)) error {
	var stop atomic.Bool
	var runSortNanos, next atomic.Int64
	n := len(s)
	core.Fork(p, func(int) {
		t0 := time.Now()
		for !stop.Load() {
			if ctx.Err() != nil {
				stop.Store(true)
				break
			}
			i := int(next.Add(1) - 1)
			if i >= r {
				break
			}
			lo, hi := i*n/r, (i+1)*n/r
			seq(s[lo:hi], scratch[lo:hi])
		}
		runSortNanos.Add(int64(time.Since(t0)))
	})
	st.RunSort = time.Duration(runSortNanos.Load())
	if stop.Load() {
		return ctx.Err()
	}
	return nil
}

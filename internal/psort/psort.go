// Package psort implements the paper's two sorting algorithms:
//
//   - Sort (§III): parallel merge sort in p balanced runs and one merge
//     pass. Phase 1 cuts the input into a multiple of p equal runs of at
//     most maxRunElems (256K) elements, exactly p runs up to p·256K, and
//     the p workers sort them sequentially — an LSD radix sort for
//     []int64 runs of at least radixMinRun (2048) elements, a merge sort
//     over insertion-sorted leaves otherwise. Phase 2 merges every run
//     into the destination in one pass balanced over the output: a
//     co-ranked k-way merge (kway.MergeIntoCtx), which for two runs is
//     one merge-path round. All p workers stay busy in both phases, the
//     property that motivates the paper (the later rounds of a pairwise
//     merge sort are where naive parallelization starves); one pass
//     replaces its log R rounds.
//   - CacheEfficientSort (§IV.C): sort cache-sized blocks one after another
//     (each with the parallel sort, all workers on one block so the block
//     stays cache-resident), then a binary tree of segmented parallel
//     merges (spm.Merge) whose working set never exceeds the cache.
//
// Both sorts are stable. SortInto sorts into a buffer the caller lends,
// using the input as run storage, so it allocates no n-element scratch;
// Sort and the other in-place forms allocate that buffer and copy the
// result back. The radix leaf yields the comparison sort's bytes because
// equal int64 keys are equal bytes; float64 and every other type stay on
// the comparison leaf, where -0 and +0 (equal under <) keep their input
// order. Float input must be NaN-free (the public mergepath package
// checks it).
package psort

import (
	"cmp"
	"context"
	"math"

	"mergepath/internal/core"
	"mergepath/internal/kway"
	"mergepath/internal/spm"
)

// insertionThreshold is the run length below which the sequential kernel
// switches to insertion sort, the usual bottom-of-recursion optimization.
const insertionThreshold = 24

// Sort sorts s with p concurrent workers using parallel merge sort.
// p < 1 panics; p == 1 runs the same two phases on the calling
// goroutine.
func Sort[T cmp.Ordered](s []T, p int) {
	_, _ = SortCtxStats(context.Background(), s, p)
}

// CacheEfficientSort sorts s with p workers, keeping the working set of
// every phase within cacheElems elements (§IV.C): cache-sized blocks are
// sorted one at a time with the parallel sort, then merged pairwise with
// the segmented parallel merge whose window is cacheElems/3.
func CacheEfficientSort[T cmp.Ordered](s []T, cacheElems, p int) {
	if p < 1 {
		panic("psort: worker count must be positive")
	}
	if cacheElems < 3 {
		panic("psort: cache must hold at least 3 elements")
	}
	if len(s) < 2 {
		return
	}
	// "Equisized sub-arrays whose size is some fraction of the cache size":
	// blocks of C/2 leave room for the sort's scratch within the cache.
	// The merges form a binary tree, one merge at a time (the
	// segmentation, not merge-level concurrency, provides the
	// parallelism — all p workers cooperate inside each window).
	window := cacheElems / 3
	bottomUp(s, make([]T, len(s)), cacheElems/2, func(b []T) { Sort(b, p) }, func(a, b, out []T) {
		spm.Merge(a, b, out, spm.Config{Window: window, Workers: p})
	})
}

// SortFunc sorts s under a caller-supplied strict weak ordering with p
// workers. It runs the same two phases as Sort; its merge pass is
// kway.MergeFuncInto, a tree of merge-path rounds, which is one round
// when there are two runs. It exists for the stability tests and for
// callers whose element type is not cmp.Ordered.
func SortFunc[T any](s []T, p int, less func(x, y T) bool) {
	seq, merge := funcPhases(less)
	_, _ = sortInPlace(context.Background(), s, p, maxRunElems, seq, merge)
}

// funcPhases returns SortFunc's run sort and merge pass under less.
func funcPhases[T any](less func(x, y T) bool) (func(s, scratch []T), mergePass[T]) {
	seq := func(s, scratch []T) { seqSortFunc(s, scratch, less) }
	merge := func(ctx context.Context, dst []T, runs [][]T, p int, ws []core.WorkerStat) ([]core.WorkerStat, error) {
		_, err := kway.MergeFuncInto(ctx, dst, runs, p, less)
		return nil, err
	}
	return seq, merge
}

// seqSort is the sequential kernel: radixSortInt64 for []int64 runs of at
// least radixMinRun elements, otherwise bottom-up merge sort over scratch
// with insertion-sorted leaves. Stable. len(scratch) must equal len(s).
func seqSort[T cmp.Ordered](s, scratch []T) {
	n := len(s)
	if is, ok := any(s).([]int64); ok && n >= radixMinRun && uint64(n) <= math.MaxUint32 {
		radixSortInt64(is, any(scratch).([]int64))
		return
	}
	mergeSortLeaf(s, scratch)
}

// mergeSortLeaf is seqSort's comparison kernel, the only one for every
// type but int64.
func mergeSortLeaf[T cmp.Ordered](s, scratch []T) {
	bottomUp(s, scratch, insertionThreshold, insertionSort[T], core.Merge[T])
}

func seqSortFunc[T any](s, scratch []T, less func(x, y T) bool) {
	bottomUp(s, scratch, insertionThreshold, func(s []T) { insertionSortFunc(s, less) },
		func(a, b, out []T) { core.MergeFunc(a, b, out, less) })
}

// bottomUp is the merge sort behind both comparison leaves and
// CacheEfficientSort: it sorts blocks of block elements with leaf, then
// merges neighbouring blocks level by level with merge, ping-ponging
// with scratch (as long as s) and copying back after an odd number of
// levels. s must be non-empty. Stable when leaf and merge are.
func bottomUp[T any](s, scratch []T, block int, leaf func(s []T), merge func(a, b, out []T)) {
	n := len(s)
	for lo := 0; lo < n; lo += block {
		leaf(s[lo:min(lo+block, n)])
	}
	src, dst := s, scratch
	for width := block; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, min(lo+2*width, n)
			if mid >= n {
				copy(dst[lo:n], src[lo:n])
				break
			}
			merge(src[lo:mid], src[mid:hi], dst[lo:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

func insertionSort[T cmp.Ordered](s []T) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i
		for j > 0 && v < s[j-1] {
			s[j] = s[j-1]
			j--
		}
		s[j] = v
	}
}

func insertionSortFunc[T any](s []T, less func(x, y T) bool) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i
		for j > 0 && less(v, s[j-1]) {
			s[j] = s[j-1]
			j--
		}
		s[j] = v
	}
}

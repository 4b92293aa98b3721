// Package psort implements the paper's two sorting algorithms:
//
//   - Sort (§III): parallel merge sort. p workers first sort runs of at
//     most min(N/p, 64K) elements sequentially; then rounds of pairwise
//     merges follow, each level one balanced core.MergeRound over all of
//     that level's pairs, so that all p workers stay busy in every round —
//     the property that motivates the paper (the later rounds of merge
//     sort are where naive parallelization starves).
//   - CacheEfficientSort (§IV.C): sort cache-sized blocks one after another
//     (each with the parallel sort, all workers on one block so the block
//     stays cache-resident), then a binary tree of segmented parallel
//     merges (spm.Merge) whose working set never exceeds the cache.
//
// Both sorts are stable and out-of-place internally (ping-pong scratch),
// with the result always landing back in the caller's slice.
package psort

import (
	"cmp"
	"context"

	"mergepath/internal/core"
	"mergepath/internal/spm"
)

// insertionThreshold is the run length below which the sequential kernel
// switches to insertion sort, the usual bottom-of-recursion optimization.
const insertionThreshold = 24

// Sort sorts s with p concurrent workers using parallel merge sort.
// p < 1 panics; p == 1 runs the same rounds on the calling goroutine.
func Sort[T cmp.Ordered](s []T, p int) {
	sortRounds(context.Background(), s, p, false, seqSort[T], core.MergeRound[T])
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
	n := len(s)
	if n < 2 {
		return
	}
	// "Equisized sub-arrays whose size is some fraction of the cache size":
	// blocks of C/2 leave room for the sort's scratch within the cache.
	block := cacheElems / 2
	if block < 1 {
		block = 1
	}
	if block > n {
		block = n
	}
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		Sort(s[lo:hi], p)
	}

	// Merge rounds: a binary tree of segmented merges, one merge at a time
	// (the segmentation, not merge-level concurrency, provides the
	// parallelism — all p workers cooperate inside each window).
	scratch := make([]T, n)
	src, dst := s, scratch
	window := cacheElems / 3
	for width := block; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			if mid >= n {
				copy(dst[lo:n], src[lo:n])
				break
			}
			hi := mid + width
			if hi > n {
				hi = n
			}
			spm.Merge(src[lo:mid], src[mid:hi], dst[lo:hi], spm.Config{Window: window, Workers: p})
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// SortFunc sorts s under a caller-supplied strict weak ordering with p
// workers. It runs the same engine as Sort; it exists for the stability
// tests and for callers whose element type is not cmp.Ordered.
func SortFunc[T any](s []T, p int, less func(x, y T) bool) {
	seq := func(s, scratch []T) { seqSortFunc(s, scratch, less) }
	round := func(ctx context.Context, pairs []core.Pair[T], p int, ws []core.WorkerStat) ([]core.WorkerStat, error) {
		return core.MergeRoundFunc(ctx, pairs, p, ws, less)
	}
	sortRounds(context.Background(), s, p, false, seq, round)
}

// seqSort is the sequential kernel: bottom-up merge sort over scratch with
// insertion-sorted leaves. Stable. len(scratch) must equal len(s).
func seqSort[T cmp.Ordered](s, scratch []T) {
	n := len(s)
	for lo := 0; lo < n; lo += insertionThreshold {
		hi := lo + insertionThreshold
		if hi > n {
			hi = n
		}
		insertionSort(s[lo:hi])
	}
	src, dst := s, scratch
	for width := insertionThreshold; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid >= n {
				copy(dst[lo:n], src[lo:n])
				break
			}
			if hi > n {
				hi = n
			}
			core.Merge(src[lo:mid], src[mid:hi], dst[lo:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

func seqSortFunc[T any](s, scratch []T, less func(x, y T) bool) {
	n := len(s)
	for lo := 0; lo < n; lo += insertionThreshold {
		hi := lo + insertionThreshold
		if hi > n {
			hi = n
		}
		insertionSortFunc(s[lo:hi], less)
	}
	src, dst := s, scratch
	for width := insertionThreshold; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid >= n {
				copy(dst[lo:n], src[lo:n])
				break
			}
			if hi > n {
				hi = n
			}
			core.MergeFunc(src[lo:mid], src[mid:hi], dst[lo:hi], less)
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

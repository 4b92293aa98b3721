// Package kway builds k-way merging out of the paper's machinery — the
// "later rounds" structure of merge sort that motivates the paper's
// introduction, packaged as a standalone utility (merging sorted runs
// from k producers: log-structured storage compactions, sharded log
// replay, external sort phases). Two strategies share one stability
// contract (equal elements ordered by source-list index, then
// position) and produce byte-identical output:
//
//   - co-ranking (the default for large merges): CoRank cuts the k runs
//     at p equispaced output ranks without merging — the k-way
//     generalization of the paper's Theorem 5 two-array partition — so
//     p workers each merge a disjoint window lock-free in a single
//     pass: O(N) data movement, per-worker loads balanced to within one
//     element. Two runs are exactly the paper's merge, one merge-path
//     round;
//   - a sequential merge: one window spanning every run.
//
// Both share one window kernel, a tournament (loser) tree that replays
// each level without a data-dependent branch and copies a leaf's whole
// run when it keeps winning. HeapMerge, the container/heap merge, stays
// as the reference every strategy is tested against. MergeFunc, for
// orderings given as a less function, runs a binary tree of merge-path
// rounds instead.
//
// MergeIntoCtx and MergeFuncInto are the cancelable forms. Under a ctx
// that can be canceled, each worker merges its output range in windows
// of at most 64K elements, each cut with CoRank, and checks ctx between
// them. psort's merge pass is MergeIntoCtx over its phase-1 runs.
//
// See docs/KWAY.md for the co-ranking invariants, the balance proof
// sketch and strategy-selection guidance.
package kway

import (
	"cmp"
	"container/heap"
	"context"

	"mergepath/internal/core"
)

// Merge merges k sorted lists into a single sorted slice, picking the
// strategy automatically (see StrategyAuto) with p workers. Stability:
// the result orders equal elements by source list index, then by
// position — the same guarantee sort.Stable would give on a
// concatenation.
func Merge[T cmp.Ordered](lists [][]T, p int) []T {
	if p < 1 {
		panic("kway: worker count must be positive")
	}
	if len(lists) == 0 {
		return nil
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	return MergeInto(make([]T, total), lists, p)
}

// MergeInto is Merge writing its result into a caller-supplied buffer:
// dst must have len >= the total element count of lists, and the merged
// output is returned as dst[:total]. Every strategy writes the merge
// straight into dst, so a caller that already owns the response buffer
// (pooled arenas, the external sort's output block) never pays a
// full-size allocation+copy. Lists are never modified. dst must not
// alias any input list.
//
// MergeInto runs StrategyAuto; use MergeIntoStats to pin a strategy or
// observe per-worker load stats.
func MergeInto[T cmp.Ordered](dst []T, lists [][]T, p int) []T {
	out, _ := MergeIntoStats(dst, lists, p, StrategyAuto)
	return out
}

// treeMerge runs the binary tree of pairwise merges into dst using at
// most one scratch buffer: rounds alternate between scratch and dst
// (flip-flop), with the parity chosen so the last round lands on dst.
// Round r+2 may overwrite round r's buffer because round r+1 already
// consumed it. Each level is one balanced round over all of its pairs;
// an odd run is carried as a pair with an empty B. A pair's first input
// is always the lower-indexed subtree, which is what preserves the
// cross-list tie rule through the tree. Every round checks ctx every
// 64K output elements; a canceled round leaves dst partial and returns
// ctx.Err().
func treeMerge[T any](ctx context.Context, dst []T, lists [][]T, p int, less func(x, y T) bool) error {
	runs := append(make([][]T, 0, len(lists)), lists...)
	rounds := 0
	for n := len(runs); n > 1; n = (n + 1) / 2 {
		rounds++
	}
	var scratch []T
	if rounds > 1 {
		scratch = make([]T, len(dst))
	}
	pairs := make([]core.Pair[T], 0, (len(runs)+1)/2)
	for level := 1; len(runs) > 1; level++ {
		buf := dst
		if (rounds-level)%2 == 1 {
			buf = scratch
		}
		pairs = pairs[:0]
		offset := 0
		for m := 0; m < len(runs); m += 2 {
			a, b := runs[m], []T(nil)
			if m+1 < len(runs) {
				b = runs[m+1]
			}
			out := buf[offset : offset+len(a)+len(b)]
			offset += len(out)
			pairs = append(pairs, core.Pair[T]{A: a, B: b, Out: out})
		}
		if _, err := core.MergeRoundFunc(ctx, pairs, p, nil, less); err != nil {
			return err
		}
		runs = runs[:len(pairs)]
		for i, pr := range pairs {
			runs[i] = pr.Out
		}
	}
	return nil
}

// heapItem is one cursor into a source list.
type heapItem[T cmp.Ordered] struct {
	value T
	list  int
	pos   int
}

type mergeHeap[T cmp.Ordered] []heapItem[T]

func (h mergeHeap[T]) Len() int { return len(h) }
func (h mergeHeap[T]) Less(i, j int) bool {
	if h[i].value != h[j].value {
		return h[i].value < h[j].value
	}
	return h[i].list < h[j].list // stability across lists
}
func (h mergeHeap[T]) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap[T]) Push(x interface{}) { *h = append(*h, x.(heapItem[T])) }
func (h *mergeHeap[T]) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// HeapMerge merges k sorted lists sequentially with a binary heap — the
// O(N·log k) classic that every strategy is benchmarked (and
// property-tested) against. Stable in the same sense as Merge.
func HeapMerge[T cmp.Ordered](lists [][]T) []T {
	total := 0
	h := make(mergeHeap[T], 0, len(lists))
	for i, l := range lists {
		total += len(l)
		if len(l) > 0 {
			h = append(h, heapItem[T]{value: l[0], list: i, pos: 0})
		}
	}
	heap.Init(&h)
	out := make([]T, 0, total)
	for h.Len() > 0 {
		item := h[0]
		out = append(out, item.value)
		l := lists[item.list]
		if item.pos+1 < len(l) {
			h[0] = heapItem[T]{value: l[item.pos+1], list: item.list, pos: item.pos + 1}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

// MergeFunc is Merge under a caller-supplied strict weak ordering,
// using a binary tree of merge-path rounds. The cross-list tie rule
// matches Merge: lower list index wins. (The pairing tree preserves it
// because round r merges neighbouring subtrees with the lower-indexed
// one as the tie-winning first input.)
func MergeFunc[T any](lists [][]T, p int, less func(x, y T) bool) []T {
	if p < 1 {
		panic("kway: worker count must be positive")
	}
	if len(lists) == 0 {
		return nil
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out, _ := MergeFuncInto(context.Background(), make([]T, total), lists, p, less)
	return out
}

// MergeFuncInto is MergeFunc writing into dst, which must have len >=
// the total element count of lists and alias none of them, under ctx:
// each tree level's round checks ctx every 64K output elements, and a
// canceled merge leaves dst partial and returns ctx.Err(). The merged
// output is dst[:total].
func MergeFuncInto[T any](ctx context.Context, dst []T, lists [][]T, p int, less func(x, y T) bool) ([]T, error) {
	if p < 1 {
		panic("kway: worker count must be positive")
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if len(dst) < total {
		panic("kway: destination shorter than total input length")
	}
	dst = dst[:total]
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if len(lists) == 1 {
		copy(dst, lists[0])
		return dst, nil
	}
	return dst, treeMerge(ctx, dst, lists, p, less)
}

package kway

import (
	"cmp"
	"context"
	"fmt"

	"mergepath/internal/core"
)

// Strategy selects the k-way merge implementation behind MergeInto.
// The zero value is StrategyAuto. All strategies produce byte-identical
// output (the stable order is unique); they differ only in work shape,
// memory traffic and parallelism — see docs/KWAY.md for selection
// guidance.
type Strategy uint8

const (
	// StrategyAuto picks per call: the pairwise merge-path round for
	// k <= 2, the sequential heap below coRankMinTotal elements or for
	// p == 1, and co-ranking otherwise.
	StrategyAuto Strategy = iota
	// StrategyHeap is the sequential cursor-heap merge: O(N·log k)
	// comparisons, one pass, no parallelism — the classic baseline and
	// the cheapest choice for small outputs.
	StrategyHeap
	// StrategyTree is the binary tree of pairwise merge-path merges:
	// every level is fully parallel but the data moves ceil(log2 k)
	// times, so it pays O(N·log k) memory traffic.
	StrategyTree
	// StrategyCoRank cuts the k runs at p equal output ranks with
	// CoRank and lets p workers each heap-merge a disjoint window
	// lock-free: O(N·log k) comparisons but only O(N) data movement,
	// in one pass, with per-worker loads balanced to within one
	// element.
	StrategyCoRank
)

// String returns the flag spelling: auto, heap, tree or corank.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyHeap:
		return "heap"
	case StrategyTree:
		return "tree"
	case StrategyCoRank:
		return "corank"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ParseStrategy parses a flag spelling (auto | heap | tree | corank).
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "auto":
		return StrategyAuto, nil
	case "heap":
		return StrategyHeap, nil
	case "tree":
		return StrategyTree, nil
	case "corank":
		return StrategyCoRank, nil
	default:
		return StrategyAuto, fmt.Errorf("kway: unknown strategy %q (want auto, heap, tree or corank)", s)
	}
}

// Stats reports what one MergeIntoStats call did, for the service
// metrics that extend the Theorem 5 imbalance validation from 2-way to
// k-way merges.
type Stats struct {
	// Strategy is the implementation actually executed (never
	// StrategyAuto: the auto choice is resolved before running).
	Strategy Strategy
	// K is the number of input runs, empty runs included.
	K int
	// Workers is how many parallel output windows were merged: the
	// co-rank window count, the requested p for the tree, 1 for the
	// heap.
	Workers int
	// PerWorker is the elements each co-rank window wrote, in window
	// order; nil for the heap and tree paths, which have no per-worker
	// output windows.
	PerWorker []int
	// Imbalance is max/mean of PerWorker — the k-way generalization of
	// the paper's Theorem 5 balance check, ~1.0 by construction because
	// windows are cut at equispaced output ranks. Zero when PerWorker
	// is nil.
	Imbalance float64
}

// coRankMinTotal is the output size below which StrategyAuto prefers
// the sequential heap: under a few thousand elements the goroutine
// hand-off and the p-1 co-rank searches cost more than the merge.
const coRankMinTotal = 1 << 13

// autoStrategy is the StrategyAuto decision: k <= 2 degenerates to the
// paper's pairwise merge (the tree path runs exactly one parallel
// merge-path round straight into dst), tiny or sequential merges take
// the heap, everything else co-ranks.
func autoStrategy(k, total, p int) Strategy {
	switch {
	case k <= 2:
		return StrategyTree
	case p == 1 || total < coRankMinTotal:
		return StrategyHeap
	default:
		return StrategyCoRank
	}
}

// MergeIntoStats is MergeInto with an explicit strategy and the
// per-call Stats: dst must have len >= the total element count of lists
// and must not alias any input; the merged output is returned as
// dst[:total]. Output bytes are identical across strategies.
func MergeIntoStats[T cmp.Ordered](dst []T, lists [][]T, p int, strat Strategy) ([]T, Stats) {
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
	st := Stats{Strategy: strat, K: len(lists), Workers: 1}
	if strat == StrategyAuto {
		st.Strategy = autoStrategy(len(lists), total, p)
	}
	switch {
	case len(lists) == 0:
	case len(lists) == 1:
		copy(dst, lists[0])
	default:
		switch st.Strategy {
		case StrategyHeap:
			heapMergeInto(dst, lists)
		case StrategyTree:
			st.Workers = p
			treeMerge(dst, lists, p, func(pairs []core.Pair[T], p int) {
				core.MergeRound(context.Background(), pairs, p, nil)
			})
		default:
			coRankMergeInto(dst, lists, p, &st)
		}
	}
	return dst, st
}

// coRankMergeInto runs the co-ranking strategy proper. The p-1 cut
// vectors are componentwise monotone (prefix sets are nested), so the
// windows partition every input exactly once and each worker writes a
// pre-assigned disjoint span of dst: no locks, no coordination.
func coRankMergeInto[T cmp.Ordered](dst []T, lists [][]T, p int, st *Stats) {
	total := len(dst)
	if p > total {
		p = total // no worker should own an empty window
	}
	cuts := make([][]int, p+1)
	cuts[0] = make([]int, len(lists))
	ends := make([]int, len(lists))
	for i, l := range lists {
		ends[i] = len(l)
	}
	cuts[p] = ends
	for w := 1; w < p; w++ {
		cuts[w] = CoRank(lists, w*total/p)
	}
	st.Workers = p
	st.PerWorker = make([]int, p)
	if p == 1 {
		st.PerWorker[0] = total
		st.Imbalance = 1
		mergeWindows(dst, lists, cuts[0], cuts[1])
		return
	}
	done := make(chan struct{})
	for w := 0; w < p; w++ {
		start, end := w*total/p, (w+1)*total/p
		st.PerWorker[w] = end - start
		go func(w, start, end int) {
			mergeWindows(dst[start:end], lists, cuts[w], cuts[w+1])
			done <- struct{}{}
		}(w, start, end)
	}
	for w := 0; w < p; w++ {
		<-done
	}
	maxLoad, sum := 0, 0
	for _, n := range st.PerWorker {
		sum += n
		if n > maxLoad {
			maxLoad = n
		}
	}
	if mean := float64(sum) / float64(p); mean > 0 {
		st.Imbalance = float64(maxLoad) / mean
	}
}

// heapMergeInto is the sequential strategy writing into a caller buffer
// (HeapMerge allocates; this path does not).
func heapMergeInto[T cmp.Ordered](dst []T, lists [][]T) {
	lo := make([]int, len(lists))
	hi := make([]int, len(lists))
	for i, l := range lists {
		hi[i] = len(l)
	}
	mergeWindows(dst, lists, lo, hi)
}

// wcursor is one active run window inside a worker's merge: the head
// value is cached in the node so sift comparisons touch only the heap
// slice, not the run memory.
type wcursor[T cmp.Ordered] struct {
	head T
	list int
	pos  int
	end  int
}

// mergeWindows merges lists[i][lo[i]:hi[i]] for every i into out (whose
// length must equal the combined window length) with a cursor min-heap
// ordered by (value, list index) — the package's stability contract.
// This is each co-rank worker's inner loop: one pass, every element
// moves exactly once.
func mergeWindows[T cmp.Ordered](out []T, lists [][]T, lo, hi []int) {
	h := make([]wcursor[T], 0, len(lists))
	for i := range lists {
		if lo[i] < hi[i] {
			h = append(h, wcursor[T]{head: lists[i][lo[i]], list: i, pos: lo[i], end: hi[i]})
		}
	}
	switch len(h) {
	case 0:
		return
	case 1:
		c := h[0]
		copy(out, lists[c.list][c.pos:c.end])
		return
	}
	// Cursors were appended in list order; heapify from the last
	// parent. The (value, list) order makes ties pop lowest list first.
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftWindow(h, i)
	}
	for n := 0; ; n++ {
		top := &h[0]
		out[n] = top.head
		if top.pos+1 < top.end {
			top.pos++
			top.head = lists[top.list][top.pos]
		} else {
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
			if last == 1 {
				// One run left: drain it with a straight copy.
				c := h[0]
				copy(out[n+1:], lists[c.list][c.pos:c.end])
				return
			}
		}
		siftWindow(h, 0)
	}
}

// siftWindow restores the min-heap order at index i, comparing by
// cached head value then list index.
func siftWindow[T cmp.Ordered](h []wcursor[T], i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && cursorLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && cursorLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// cursorLess orders cursors by head value, then source-list index.
func cursorLess[T cmp.Ordered](x, y wcursor[T]) bool {
	if x.head != y.head {
		return x.head < y.head
	}
	return x.list < y.list
}

package kway

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"

	"mergepath/internal/core"
)

// Strategy selects the k-way merge implementation behind MergeInto.
// The zero value is StrategyAuto. All strategies produce byte-identical
// output (the stable order is unique); they differ only in work shape
// and parallelism — see docs/KWAY.md.
type Strategy uint8

const (
	// StrategyAuto picks per call: the sequential merge below
	// coRankMinTotal elements or for p == 1, and co-ranking otherwise;
	// two runs always take co-ranking's merge-path round.
	StrategyAuto Strategy = iota
	// StrategyHeap is the sequential merge: one loser-tree tournament
	// over all k runs, O(N·log k) comparisons, one pass, no parallelism —
	// the cheapest choice for small outputs.
	StrategyHeap
	// StrategyCoRank cuts the k runs at p equal output ranks with
	// CoRank and lets p workers each merge a disjoint window lock-free
	// with the loser-tree kernel: O(N·log k) comparisons but only O(N)
	// data movement, in one pass, with per-worker loads balanced to
	// within one element. Two runs are one merge-path round: the
	// co-rank cut of two runs is the paper's diagonal search.
	StrategyCoRank
)

// String returns the strategy's name: auto, heap or corank.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyHeap:
		return "heap"
	case StrategyCoRank:
		return "corank"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
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
	// co-rank window count, 1 for the heap.
	Workers int
	// PerWorker is the elements each co-rank window wrote, in window
	// order; nil for the heap, which has no per-worker output windows.
	PerWorker []int
	// Imbalance is max/mean of PerWorker — the k-way generalization of
	// the paper's Theorem 5 balance check, ~1.0 by construction because
	// windows are cut at equispaced output ranks. Zero when PerWorker
	// is nil.
	Imbalance float64
}

// coRankMinTotal is the output size below which StrategyAuto prefers
// the sequential merge: under a few thousand elements the goroutine
// hand-off and the p-1 co-rank searches cost more than the merge.
const coRankMinTotal = 1 << 13

// autoStrategy is the StrategyAuto decision: two runs are the paper's
// own merge, so they always co-rank (one merge-path round straight into
// dst); tiny or sequential merges take the sequential tournament,
// everything else co-ranks.
func autoStrategy(k, total, p int) Strategy {
	if k > 2 && (p == 1 || total < coRankMinTotal) {
		return StrategyHeap
	}
	return StrategyCoRank
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
	case st.Strategy == StrategyHeap:
		seqMergeInto(dst, lists)
	default:
		coRankMergeInto(dst, lists, p, &st)
	}
	return dst, st
}

// coRankMergeInto runs the co-ranking strategy proper. The p-1 cut
// vectors are componentwise monotone (prefix sets are nested), so the
// windows partition every input exactly once and each worker writes a
// pre-assigned disjoint span of dst: no locks, no coordination. Two
// runs go to one core.MergeRound pair, which cuts them at the same
// ranks with the diagonal search.
func coRankMergeInto[T cmp.Ordered](dst []T, lists [][]T, p int, st *Stats) {
	total := len(dst)
	p = min(p, total) // no worker should own an empty window
	st.Workers = p
	if p == 0 {
		return
	}
	if len(lists) == 2 {
		pair := []core.Pair[T]{{A: lists[0], B: lists[1], Out: dst}}
		ws, _ := core.MergeRound(context.Background(), pair, p, make([]core.WorkerStat, p))
		st.PerWorker = make([]int, len(ws))
		for w, s := range ws {
			st.PerWorker[w] = s.Elements
		}
	} else {
		st.PerWorker = mergeCoRankWindows(dst, lists, p)
	}
	maxLoad := 0
	for _, n := range st.PerWorker {
		maxLoad = max(maxLoad, n)
	}
	st.Imbalance = float64(maxLoad) * float64(p) / float64(total)
}

// mergeCoRankWindows cuts lists at p-1 equispaced output ranks and
// merges the p windows into dst, one core.Fork worker each; it returns
// each window's element count.
func mergeCoRankWindows[T cmp.Ordered](dst []T, lists [][]T, p int) []int {
	total := len(dst)
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
	loads := make([]int, p)
	core.Fork(p, func(w int) {
		start, end := w*total/p, (w+1)*total/p
		loads[w] = end - start
		mergeWindows(dst[start:end], lists, cuts[w], cuts[w+1])
	})
	return loads
}

// seqMergeInto is the sequential strategy writing into a caller buffer
// (HeapMerge allocates; this path does not): one tournament over the
// whole of every run.
func seqMergeInto[T cmp.Ordered](dst []T, lists [][]T) {
	leaves := make([]leaf[T], 0, len(lists))
	for _, l := range lists {
		if len(l) > 0 {
			leaves = append(leaves, leaf[T]{run: l})
		}
	}
	mergeLeaves(dst, leaves)
}

// node is one internal node of the loser tree: the leaf that lost the
// last match played there, with its head value cached so a replay
// touches only the tree, never the run memory.
type node[T cmp.Ordered] struct {
	key  T
	leaf int
}

// leaf is one non-empty window of a tournament: run ends at the
// window's end and pos is the next unmerged index. at is the leaf's
// heap node, set when the tree is built.
type leaf[T cmp.Ordered] struct {
	run []T
	pos int
	at  int
}

// mergeWindows merges lists[i][lo[i]:hi[i]] for every i into out (whose
// length must equal the combined window length) in (value, list index)
// order, the package's stability contract. This is each co-rank
// worker's inner loop: one pass, every element moves exactly once.
func mergeWindows[T cmp.Ordered](out []T, lists [][]T, lo, hi []int) {
	leaves := make([]leaf[T], 0, len(lists))
	for i, l := range lists {
		if lo[i] < hi[i] {
			leaves = append(leaves, leaf[T]{run: l[:hi[i]], pos: lo[i]})
		}
	}
	mergeLeaves(out, leaves)
}

// mergeLeaves merges the non-empty windows in leaves, given in list
// order, into out. They become the leaves of a tournament (loser) tree.
// A leaf that runs dry stays in the tree as a dead leaf (tournament), so
// it costs one O(log k) replay; once half the leaves are dead the live
// ones are compacted and the tree is rebuilt, O(k) amortized over the
// k/2 exhaustions that led to it. It returns the number of leaves
// placed over all tree builds, at most 2·len(leaves).
func mergeLeaves[T cmp.Ordered](out []T, leaves []leaf[T]) (built int) {
	tree := make([]node[T], len(leaves))
	win := make([]int, 2*len(leaves))
	o := 0
	for len(leaves) > 1 {
		built += len(leaves)
		o = tournament(out, o, leaves, tree, win)
		live := leaves[:0]
		for _, lf := range leaves {
			if lf.pos < len(lf.run) {
				live = append(live, lf)
			}
		}
		leaves = live
	}
	if len(leaves) == 1 {
		copy(out[o:], leaves[0].run[leaves[0].pos:])
	}
	return built
}

// tournament builds a loser tree over leaves (at least two) and merges
// from out[o] on until at most half of them are live; it returns the
// next output index. tree and win are scratch of at least len(leaves)
// and 2·len(leaves) entries.
//
// Leaf i sits at its in-order (left-to-right) position in the heap
// layout, so every leaf of a node's left subtree has a lower list index
// than every leaf of its right subtree. A tie at a node then goes to
// the left side, and a replay decides it from the side it climbed
// from, with no index comparison. Each replay level picks winner and
// loser with an integer mask and one conditional move and stores
// unconditionally: no data-dependent branch.
//
// A leaf that runs dry replays with key top, the largest last element
// of any run, and keeps its place in the tie order. No live head
// exceeds top, so a dead leaf wins only when every live head equals
// top, and then so does every element left; the rest of the output is
// the live runs in list order. No sentinel value is needed, so any
// cmp.Ordered T works.
func tournament[T cmp.Ordered](out []T, o int, leaves []leaf[T], tree []node[T], win []int) int {
	k := len(leaves)
	// Heap nodes 1..2k-1; leaves are nodes k..2k-1. The deepest level
	// (from node deep) holds the leftmost leaves, the leaves one level
	// up (k..deep-1) follow them.
	deep := 1 << (bits.Len(uint(2*k-1)) - 1)
	top := leaves[0].run[len(leaves[0].run)-1]
	for i := range leaves {
		n := deep + i
		if n >= 2*k {
			n -= k
		}
		leaves[i].at = n
		win[n] = i // win[n] is the winner of the subtree at node n
		// cmp.Less, unlike max, never lets a NaN displace a number.
		if last := leaves[i].run[len(leaves[i].run)-1]; cmp.Less(top, last) {
			top = last
		}
	}
	head := func(i int) T { return leaves[i].run[leaves[i].pos] }
	for n := k - 1; n >= 1; n-- {
		l, r := win[2*n], win[2*n+1]
		if head(r) < head(l) {
			l, r = r, l
		}
		win[n] = l
		tree[n] = node[T]{key: head(r), leaf: r}
	}
	w := win[1]
	wk := head(w)
	prev := -1
	live := k
	for {
		lf := &leaves[w]
		run := lf.run
		if lf.pos == len(run) {
			// A dead leaf won.
			for i := range leaves {
				o += copy(out[o:], leaves[i].run[leaves[i].pos:])
				leaves[i].pos = len(leaves[i].run)
			}
			return o
		}
		out[o] = wk
		o++
		p := lf.pos + 1
		if w == prev && p < len(run) {
			// The same leaf won twice running: copy the rest of its run
			// that precedes the runner-up, the best loser on its path.
			n := lf.at >> 1
			r, rk := tree[n].leaf, tree[n].key
			for n >>= 1; n >= 1; n >>= 1 {
				if c := tree[n]; c.key < rk || c.key == rk && c.leaf < r {
					r, rk = c.leaf, c.key
				}
			}
			e := p
			if w < r {
				for e < len(run) && run[e] <= rk {
					e++
				}
			} else {
				for e < len(run) && run[e] < rk {
					e++
				}
			}
			o += copy(out[o:], run[p:e])
			p = e
		}
		lf.pos = p
		if p < len(run) {
			wk = run[p]
		} else {
			if live--; 2*live <= k {
				return o
			}
			wk = top
		}
		prev = w
		for n := lf.at; n > 1; n >>= 1 {
			nd := &tree[n>>1]
			lk, ll := nd.key, nd.leaf
			// The stored loser beats the climber if it is smaller, or
			// equal and the climber came up from the right (n odd).
			// The compiler emits each 0/1 flag as a flag set, not a
			// branch. They are written out, not behind a helper: a
			// package that imports kway only through another one (jobs,
			// via extsort) instantiates this body without inlining such
			// a helper, and the linker may keep that copy for the whole
			// binary, so every replay level would pay two calls.
			lt, eq := 0, 0
			if lk < wk {
				lt = 1
			}
			if lk == wk {
				eq = 1
			}
			m := -(lt | eq&n)
			nk := lk
			if m != 0 {
				nk, wk = wk, lk
			}
			d := (w ^ ll) & m
			nd.key, nd.leaf = nk, ll^d
			w ^= d
		}
	}
}

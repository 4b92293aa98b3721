package kway

import (
	"math/rand"
	"sort"
	"testing"

	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

// genLists builds k sorted lists with the requested value domain (small
// domains force duplicate-heavy ties) and a sprinkling of empty and
// singleton runs, the shapes the co-rank search must survive.
func genLists(rng *rand.Rand, k, maxLen int, domain int32) [][]int32 {
	lists := make([][]int32, k)
	for i := range lists {
		var n int
		switch rng.Intn(6) {
		case 0:
			n = 0 // empty run
		case 1:
			n = 1 // singleton run
		default:
			n = rng.Intn(maxLen + 1)
		}
		l := workload.SortedUniform32(rng, n)
		if domain > 0 {
			for j := range l {
				if l[j] %= domain; l[j] < 0 {
					l[j] += domain
				}
			}
			insertion(l)
		}
		lists[i] = l
	}
	return lists
}

// TestMergeIntoMatchesHeap is the differential gate wired into `make
// verify`: every strategy must be byte-identical to the sequential heap
// baseline across k x sizes x duplicate densities x empty/singleton
// runs.
func TestMergeIntoMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	strategies := []Strategy{StrategyAuto, StrategyHeap, StrategyCoRank}
	for _, k := range []int{1, 2, 3, 4, 7, 16, 33, 64} {
		for _, domain := range []int32{0, 3, 50} {
			for trial := 0; trial < 6; trial++ {
				lists := genLists(rng, k, 300, domain)
				want := HeapMerge(lists)
				p := 1 + rng.Intn(8)
				for _, strat := range strategies {
					dst := make([]int32, len(want))
					got, st := MergeIntoStats(dst, lists, p, strat)
					if !verify.Equal(got, want) {
						t.Fatalf("k=%d domain=%d p=%d strategy=%v: output differs from heap baseline", k, domain, p, st.Strategy)
					}
					if st.Strategy == StrategyAuto {
						t.Fatalf("stats must report the resolved strategy, got auto")
					}
				}
			}
		}
	}
}

// referenceCuts computes the cut vector at rank r from a tagged stable
// merge: concatenate (value, list, index) triples in list order, stable
// sort by value (which leaves ties in list-then-index order), and count
// the first r elements per list. This is the spec CoRank must match.
func referenceCuts(lists [][]int32, r int) []int {
	type tagged struct {
		v    int32
		list int
	}
	var all []tagged
	for i, l := range lists {
		for _, v := range l {
			all = append(all, tagged{v, i})
		}
	}
	sort.SliceStable(all, func(x, y int) bool { return all[x].v < all[y].v })
	cuts := make([]int, len(lists))
	for _, e := range all[:r] {
		cuts[e.list]++
	}
	return cuts
}

// TestCoRankMatchesReference pins the tie-break order: the cuts must
// agree with a tagged stable sort at every rank, so equal elements are
// charged to lower-indexed lists first, in position order.
func TestCoRankMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(10)
		lists := genLists(rng, k, 60, int32(1+rng.Intn(8))) // heavy ties
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		for _, r := range []int{0, total / 3, total / 2, total} {
			got := CoRank(lists, r)
			want := referenceCuts(lists, r)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d rank %d: cuts %v, want %v (lists %v)", trial, r, got, want, lists)
				}
			}
		}
	}
}

// TestCoRankAllEqual is the degenerate tie case spelled out: with every
// value equal, rank r must drain lists in index order.
func TestCoRankAllEqual(t *testing.T) {
	lists := [][]int32{{7, 7, 7}, {7}, {7, 7, 7, 7}, {7, 7}}
	wants := map[int][]int{
		0:  {0, 0, 0, 0},
		2:  {2, 0, 0, 0},
		3:  {3, 0, 0, 0},
		4:  {3, 1, 0, 0},
		6:  {3, 1, 2, 0},
		10: {3, 1, 4, 2},
	}
	for r, want := range wants {
		got := CoRank(lists, r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d: cuts %v, want %v", r, got, want)
			}
		}
	}
}

// TestCoRankInvariant checks the pairwise partition invariant directly:
// nothing left behind a cut may precede anything taken by another cut,
// under (value, list index) order.
func TestCoRankInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(12)
		lists := genLists(rng, k, 120, int32(rng.Intn(20)))
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		r := rng.Intn(total + 1)
		cuts := CoRank(lists, r)
		assertValidCuts(t, lists, r, cuts)
	}
}

// assertValidCuts checks sum, bounds and the pairwise invariant of one
// cut vector (shared with FuzzCoRank).
func assertValidCuts(t *testing.T, lists [][]int32, r int, cuts []int) {
	t.Helper()
	sum := 0
	for i, c := range cuts {
		if c < 0 || c > len(lists[i]) {
			t.Fatalf("rank %d: cut %d out of bounds: %v", r, i, cuts)
		}
		sum += c
	}
	if sum != r {
		t.Fatalf("cuts sum to %d, want rank %d: %v", sum, r, cuts)
	}
	for i, ci := range cuts {
		if ci == 0 {
			continue
		}
		last := lists[i][ci-1]
		for j, cj := range cuts {
			if cj == len(lists[j]) {
				continue
			}
			next := lists[j][cj]
			// (last, i) must precede (next, j): last < next, or equal
			// values with i <= j (same-list ties are ordered by
			// position, and next sits at a later position than last).
			if last < next || (last == next && i <= j) {
				continue
			}
			t.Fatalf("rank %d: lists[%d][%d]=%v taken but lists[%d][%d]=%v left behind precedes it (cuts %v)",
				r, i, ci-1, last, j, cj, next, cuts)
		}
	}
}

// TestCoRankMonotone: cuts at increasing ranks must be componentwise
// monotone, so the windows between consecutive cuts are disjoint and
// cover every element — what makes the p-worker merge lock-free.
func TestCoRankMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for trial := 0; trial < 30; trial++ {
		lists := genLists(rng, 2+rng.Intn(8), 80, 10)
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		p := 1 + rng.Intn(9)
		prev := make([]int, len(lists))
		for w := 1; w <= p; w++ {
			r := w * total / p
			cuts := CoRank(lists, r)
			for i := range cuts {
				if cuts[i] < prev[i] {
					t.Fatalf("cuts not monotone at rank %d: %v after %v", r, cuts, prev)
				}
			}
			prev = cuts
		}
		for i := range prev {
			if prev[i] != len(lists[i]) {
				t.Fatalf("final cut does not cover list %d: %v", i, prev)
			}
		}
	}
}

func TestCoRankPanicsOutOfRange(t *testing.T) {
	lists := [][]int32{{1, 2}, {3}}
	for _, r := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: expected panic", r)
				}
			}()
			CoRank(lists, r)
		}()
	}
}

func TestCoRankFuncMatchesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	less := func(x, y int32) bool { return x < y }
	for trial := 0; trial < 30; trial++ {
		lists := genLists(rng, 1+rng.Intn(8), 100, 6)
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		r := rng.Intn(total + 1)
		got := CoRankFunc(lists, r, less)
		want := CoRank(lists, r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d: func cuts %v, ordered cuts %v", r, got, want)
			}
		}
	}
}

// TestMergeCoRankStats: per-worker loads must sum to the total and be
// balanced to within one element (imbalance ~1.0), extending the
// Theorem 5 validation from 2-way to k-way. Every fifth trial merges
// two runs, which co-rank as one merge-path round.
func TestMergeCoRankStats(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	for trial := 0; trial < 25; trial++ {
		k := 3 + rng.Intn(14)
		if trial%5 == 0 {
			k = 2
		}
		lists := genLists(rng, k, 500, 0)
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		p := 1 + rng.Intn(8)
		strat := StrategyCoRank
		if trial%10 == 0 {
			strat = StrategyAuto
		}
		dst := make([]int32, total)
		got, st := MergeIntoStats(dst, lists, p, strat)
		if !verify.Equal(got, HeapMerge(lists)) {
			t.Fatal("co-rank merge differs from heap baseline")
		}
		if st.Strategy != StrategyCoRank {
			t.Fatalf("k=%d %v: strategy %v", k, strat, st.Strategy)
		}
		if len(st.PerWorker) != min(p, total) {
			t.Fatalf("k=%d: %d per-worker loads, want %d", k, len(st.PerWorker), min(p, total))
		}
		sum := 0
		for _, n := range st.PerWorker {
			sum += n
		}
		if sum != total {
			t.Fatalf("per-worker loads sum to %d, want %d", sum, total)
		}
		if total >= p && p > 0 {
			lo, hi := total/p, (total+p-1)/p
			for w, n := range st.PerWorker {
				if n < lo || n > hi {
					t.Fatalf("worker %d load %d outside [%d,%d]", w, n, lo, hi)
				}
			}
		}
		if total > 0 && st.Imbalance > 1.5 {
			t.Fatalf("imbalance %.3f", st.Imbalance)
		}
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{StrategyAuto: "auto", StrategyHeap: "heap", StrategyCoRank: "corank"} {
		if got := s.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

// TestMergeIntoStatsEdges: empty and single-list inputs short-circuit
// before any strategy runs.
func TestMergeIntoStatsEdges(t *testing.T) {
	out, st := MergeIntoStats([]int32{}, nil, 4, StrategyCoRank)
	if len(out) != 0 || st.K != 0 {
		t.Fatalf("nil lists: %v %+v", out, st)
	}
	// Two empty runs clamp the worker count to zero; the merge-path
	// round must not be asked for zero workers.
	for _, strat := range []Strategy{StrategyAuto, StrategyCoRank} {
		out, st = MergeIntoStats([]int32{}, [][]int32{{}, {}}, 4, strat)
		if len(out) != 0 || st.K != 2 || st.Workers != 0 || st.PerWorker != nil {
			t.Fatalf("%v, two empty lists: %v %+v", strat, out, st)
		}
	}
	dst := make([]int32, 3)
	out, _ = MergeIntoStats(dst, [][]int32{{3, 1, 2}}, 4, StrategyCoRank)
	if out[0] != 3 || out[1] != 1 || out[2] != 2 {
		t.Fatalf("single list must be copied verbatim: %v", out)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for short dst")
			}
		}()
		MergeIntoStats(make([]int32, 1), [][]int32{{1}, {2}}, 2, StrategyAuto)
	}()
}

package kway

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortedList draws n values from [0, bound) in sorted order.
func sortedList(rng *rand.Rand, n int, bound int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = rng.Int63n(bound)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func TestMergeIntoMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(9)
		lists := make([][]int64, k)
		total := 0
		for i := range lists {
			lists[i] = sortedList(rng, rng.Intn(200), 64)
			total += len(lists[i])
		}
		want := HeapMerge(lists)
		dst := make([]int64, total+rng.Intn(5)) // spare capacity must be tolerated
		got := MergeInto(dst, lists, 1+rng.Intn(4))
		if len(got) != total {
			t.Fatalf("trial %d: got %d elements, want %d", trial, len(got), total)
		}
		if total > 0 && &got[0] != &dst[0] {
			t.Fatalf("trial %d: result does not alias dst", trial)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d: got %d want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMergeIntoEdgeCases(t *testing.T) {
	if got := MergeInto([]int64{}, nil, 2); len(got) != 0 {
		t.Fatalf("no lists: got %v", got)
	}
	one := MergeInto(make([]int64, 3), [][]int64{{1, 2, 3}}, 2)
	if len(one) != 3 || one[0] != 1 || one[2] != 3 {
		t.Fatalf("single list: got %v", one)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short dst: expected panic")
		}
	}()
	MergeInto(make([]int64, 2), [][]int64{{1, 2}, {3}}, 1)
}

// strategies lists every concrete MergeIntoStats strategy.
var strategies = []Strategy{StrategyHeap, StrategyCoRank}

// sameBits reports whether got and want hold the same float64 bit
// patterns, so a -0 where +0 belongs is a mismatch.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// TestMergeIntoSignedZeroTies pins the cross-list tie order where it
// is visible in the output bytes: -0 and +0 compare equal, so only
// (value, list, position) order says which one comes first. Every k up
// to 19 covers each non-power-of-two tree shape, where a leaf placed
// out of list order would break a tie the wrong way.
func TestMergeIntoSignedZeroTies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	domain := []float64{-2, -1, math.Copysign(0, -1), 0, 1, 2}
	for k := 2; k <= 19; k++ {
		for trial := 0; trial < 8; trial++ {
			lists := make([][]float64, k)
			for i := range lists {
				l := make([]float64, rng.Intn(40))
				for j := range l {
					l[j] = domain[rng.Intn(len(domain))]
				}
				sort.Float64s(l)
				lists[i] = l
			}
			want := HeapMerge(lists)
			for p := 1; p <= 3; p++ {
				for _, strat := range strategies {
					got, _ := MergeIntoStats(make([]float64, len(want)), lists, p, strat)
					if !sameBits(got, want) {
						t.Fatalf("k=%d p=%d %v: tie order differs from HeapMerge\n got %v\nwant %v", k, p, strat, got, want)
					}
				}
			}
		}
	}
}

// TestMergeManyShortRuns merges 1<<16 one-element runs, where every
// output element exhausts a leaf. A run running dry must cost an O(log k)
// replay, not a tree rebuild: the leaves placed over all rebuilds are
// pinned at 2k, where rebuilding per exhaustion would place ~k²/2.
func TestMergeManyShortRuns(t *testing.T) {
	const k = 1 << 16
	rng := rand.New(rand.NewSource(5))
	lists := make([][]int64, k)
	for i := range lists {
		lists[i] = []int64{rng.Int63n(1 << 10)}
	}
	want := HeapMerge(lists)

	leaves := make([]leaf[int64], k)
	for i, l := range lists {
		leaves[i] = leaf[int64]{run: l}
	}
	got := make([]int64, k)
	if built := mergeLeaves(got, leaves); built > 2*k {
		t.Fatalf("placed %d leaves over all tree builds, want <= %d", built, 2*k)
	}
	if !slices.Equal(got, want) {
		t.Fatal("mergeLeaves output differs from HeapMerge")
	}
	for _, p := range []int{1, 2} {
		for _, strat := range strategies {
			got, _ := MergeIntoStats(make([]int64, k), lists, p, strat)
			if !slices.Equal(got, want) {
				t.Fatalf("p=%d %v: output differs from HeapMerge", p, strat)
			}
		}
	}
}

package mergepath_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mergepath"
	"mergepath/internal/baseline"
	"mergepath/internal/batch"
	"mergepath/internal/bitonic"
	"mergepath/internal/core"
	"mergepath/internal/psort"
	"mergepath/internal/spm"
	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

// TestDifferentialMergers runs every merge implementation in the
// repository over the full workload grid and checks they all produce the
// byte-identical stable merge — the single table that catches a divergence
// anywhere in the family.
func TestDifferentialMergers(t *testing.T) {
	type merger struct {
		name string
		run  func(a, b, out []int32, p int)
	}
	mergers := []merger{
		{"core.Merge", func(a, b, out []int32, p int) { core.Merge(a, b, out) }},
		// The branch-free kernel is the one core.Merge runs; this row
		// keeps its name and resumes it in chunks, as round workers do.
		{"core.MergeBranchFree", func(a, b, out []int32, p int) {
			pt, step := core.Point{}, len(out)/(p+2)+1
			for k := 0; k < len(out); k += step {
				pt = core.MergeSteps(a, b, pt, min(step, len(out)-k), out[k:])
			}
		}},
		{"core.ParallelMerge", core.ParallelMerge[int32]},
		{"core.Hierarchical", func(a, b, out []int32, p int) {
			core.HierarchicalMerge(a, b, out, core.HierarchicalConfig{Blocks: max(p/2, 1), TeamSize: 2})
		}},
		{"spm.Merge", func(a, b, out []int32, p int) {
			spm.Merge(a, b, out, spm.Config{Window: 64, Workers: p})
		}},
		{"baseline.Sequential", func(a, b, out []int32, p int) { baseline.SequentialMerge(a, b, out) }},
		{"baseline.AklSantoro", baseline.AklSantoroMerge[int32]},
		{"baseline.DeoSarkar", baseline.DeoSarkarMerge[int32]},
		{"baseline.ShiloachVishkin", baseline.ShiloachVishkinMerge[int32]},
		{"bitonic.MergeParallel", bitonic.MergeParallel[int32]},
		{"batch.Merge", func(a, b, out []int32, p int) {
			// Split the merge at three co-rank points into four
			// independent pairs, so one round spans pair boundaries.
			cuts := core.Partition(a, b, 4)
			pairs := make([]batch.Pair[int32], 4)
			for i := range pairs {
				lo, hi := cuts[i], cuts[i+1]
				pairs[i] = batch.Pair[int32]{A: a[lo.A:hi.A], B: b[lo.B:hi.B], Out: out[lo.Diagonal():hi.Diagonal()]}
			}
			batch.Merge(pairs, p)
		}},
	}

	rng := rand.New(rand.NewSource(220))
	for _, kind := range workload.Kinds() {
		for _, sizes := range [][2]int{{0, 17}, {33, 0}, {257, 129}, {1000, 1500}} {
			a, b := workload.Pair(kind, sizes[0], sizes[1], 9)
			want := verify.ReferenceMerge(a, b)
			for _, p := range []int{1, 3, 8} {
				for _, m := range mergers {
					t.Run(fmt.Sprintf("%s/%s/%dx%d/p%d", m.name, kind, sizes[0], sizes[1], p), func(t *testing.T) {
						out := make([]int32, len(a)+len(b))
						m.run(a, b, out, p)
						// The bitonic network is not stable, but on plain
						// values the merged output is still unique.
						if !verify.Equal(out, want) {
							t.Fatalf("diverges from reference at first diff %d", firstDiff(out, want))
						}
					})
				}
			}
		}
		_ = rng
	}
}

// TestDifferentialSorters does the same across every sorting
// implementation.
func TestDifferentialSorters(t *testing.T) {
	type sorter struct {
		name string
		run  func(s []int32, p int)
	}
	sorters := []sorter{
		{"psort.Sort", func(s []int32, p int) { mergepath.Sort(s, p) }},
		{"psort.Dataflow", func(s []int32, p int) { mergepath.SortDataflow(s, p, 64) }},
		{"psort.CacheEfficient", func(s []int32, p int) { mergepath.CacheEfficientSort(s, 512, p) }},
		{"bitonic.Sort", func(s []int32, p int) { bitonic.SortParallel(s, p) }},
		{"bitonic.OddEven", func(s []int32, p int) { bitonic.OddEvenSortParallel(s, p) }},
	}
	rng := rand.New(rand.NewSource(221))
	for trial := 0; trial < 12; trial++ {
		n := rng.Intn(4000)
		data := workload.Unsorted(rng, n)
		want := append([]int32(nil), data...)
		insertionSortHelper(want)
		for _, p := range []int{1, 4} {
			for _, s := range sorters {
				got := append([]int32(nil), data...)
				s.run(got, p)
				if !verify.Equal(got, want) {
					t.Fatalf("%s n=%d p=%d: diverges at %d", s.name, n, p, firstDiff(got, want))
				}
			}
		}
	}

	// Sizes past the 64K run cap with odd run counts, so phase 2 has
	// levels whose last run is carried through a round as a pair with
	// an empty B.
	engines := []sorter{
		{"psort.Sort", func(s []int32, p int) { psort.Sort(s, p) }},
		{"psort.SortFunc", func(s []int32, p int) { psort.SortFunc(s, p, func(x, y int32) bool { return x < y }) }},
		{"psort.SortCtx", func(s []int32, p int) {
			if err := psort.SortCtx(context.Background(), s, p); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, n := range []int{3*65536 + 1, 5*65536 + 17} {
		data := workload.Unsorted(rng, n)
		want := append([]int32(nil), data...)
		slices.Sort(want)
		for _, p := range []int{1, 2, 3, 5} {
			for _, s := range engines {
				got := append([]int32(nil), data...)
				s.run(got, p)
				if !verify.Equal(got, want) {
					t.Fatalf("%s n=%d p=%d: diverges at %d", s.name, n, p, firstDiff(got, want))
				}
			}
		}
	}
}

func firstDiff(a, b []int32) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func insertionSortHelper(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

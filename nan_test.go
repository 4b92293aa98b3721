package mergepath_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mergepath"
)

// nanProbe returns a sorted float64 list of n values with about one in
// eight replaced by NaN: the in-process probe that made co-rank windows
// overlap and index past their output before the entry points checked.
func nanProbe(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(rng.Intn(1000))
	}
	slices.Sort(s)
	for i := range s {
		if rng.Intn(8) == 0 {
			s[i] = math.NaN()
		}
	}
	return s
}

// firstNaN names the first of lists holding a NaN and its index, as the
// panic message reports them.
func firstNaN(names []string, lists ...[]float64) string {
	for i, l := range lists {
		for j, x := range l {
			if x != x {
				return fmt.Sprintf("%s holds NaN at index %d", names[i], j)
			}
		}
	}
	return ""
}

// TestNaNInputPanics: every entry point that reads all of its input
// refuses a float list holding a NaN with a panic naming the list and
// the first NaN's index, at p = 2 and 3, instead of returning a wrong
// multiset or panicking inside a worker.
func TestNaNInputPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		p := 2 + trial%2
		a, b := nanProbe(rng, 1+rng.Intn(3000)), nanProbe(rng, 1+rng.Intn(3000))
		if trial%3 == 0 {
			// NaN only in the second list.
			for i := range a {
				if a[i] != a[i] {
					a[i] = 1000
				}
			}
			slices.Sort(a)
		}
		want2 := firstNaN([]string{"a", "b"}, a, b)
		out := make([]float64, len(a)+len(b))
		cases := []struct {
			name, want string
			run        func()
		}{
			{"Merge", want2, func() { mergepath.Merge(a, b, out) }},
			{"ParallelMerge", want2, func() { mergepath.ParallelMerge(a, b, out, p) }},
			{"SegmentedMerge", want2, func() {
				mergepath.SegmentedMerge(a, b, out, mergepath.SegmentedConfig{Window: 64, Workers: p})
			}},
			{"HierarchicalMerge", want2, func() {
				mergepath.HierarchicalMerge(a, b, out, mergepath.HierarchicalConfig{Blocks: p, TeamSize: 2})
			}},
			{"Union", want2, func() { mergepath.Union(a, b, p) }},
			{"Intersect", want2, func() { mergepath.Intersect(a, b, p) }},
			{"Diff", want2, func() { mergepath.Diff(a, b, p) }},
			{"Sort", firstNaN([]string{"s"}, b), func() { mergepath.Sort(slices.Clone(b), p) }},
			{"CacheEfficientSort", firstNaN([]string{"s"}, b), func() {
				mergepath.CacheEfficientSort(slices.Clone(b), 256, p)
			}},
			{"SortDataflow", firstNaN([]string{"s"}, b), func() { mergepath.SortDataflow(slices.Clone(b), p, 0) }},
			{"MergeK", firstNaN([]string{"lists[0]", "lists[1]", "lists[2]"}, a, a, b), func() {
				mergepath.MergeK([][]float64{a, a, b}, p)
			}},
			{"MergeBatch", firstNaN([]string{"pairs[0].A", "pairs[0].B"}, a, b), func() {
				mergepath.MergeBatch([]mergepath.BatchPair[float64]{{A: a, B: b, Out: out}}, p)
			}},
			{"MergeBatchStats", firstNaN([]string{"pairs[0].A", "pairs[0].B"}, a, b), func() {
				mergepath.MergeBatchStats([]mergepath.BatchPair[float64]{{A: a, B: b, Out: out}}, p)
			}},
		}
		for _, tc := range cases {
			if tc.want == "" {
				t.Fatalf("trial %d %s: probe carries no NaN", trial, tc.name)
			}
			got := func() (v any) {
				defer func() { v = recover() }()
				tc.run()
				return nil
			}()
			msg, ok := got.(string)
			if !ok || !strings.Contains(msg, tc.want) {
				t.Fatalf("trial %d %s p=%d: recovered %v, want a panic saying %q", trial, tc.name, p, got, tc.want)
			}
		}
	}
	// float32 is checked too; NaN-free floats with ±0 and ±Inf are not
	// refused.
	f32 := []float32{1, float32(math.NaN()), 2}
	if got := func() (v any) {
		defer func() { v = recover() }()
		mergepath.Sort(f32, 2)
		return nil
	}(); got == nil || !strings.Contains(got.(string), "s holds NaN at index 1") {
		t.Fatalf("float32 Sort: recovered %v", got)
	}
	ok := []float64{math.Inf(1), 0, math.Copysign(0, -1), math.Inf(-1), 5e-324}
	mergepath.Sort(ok, 2)
	if !slices.IsSorted(ok) {
		t.Fatalf("NaN-free float Sort: %v", ok)
	}
}

package harness

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mergepath/internal/baseline"
	"mergepath/internal/bitonic"
	"mergepath/internal/core"
	"mergepath/internal/kway"
	"mergepath/internal/psort"
	"mergepath/internal/spm"
	"mergepath/internal/stats"
	"mergepath/internal/workload"
)

// Options configures the experiment sweeps. The zero value is not useful;
// call Defaults.
type Options struct {
	Sizes   []int // per-input-array element counts for merge experiments
	Threads []int // worker counts (the paper's 1..12)
	Reps    int   // timed repetitions; the median is reported
	Warmup  int
	Seed    int64
}

// Defaults returns laptop-scale settings: the paper's thread ladder with
// input sizes reduced so the full suite runs in seconds. Pass the paper's
// sizes (1M..256M) via flags to cmd/mergebench for the full-scale run.
func Defaults() Options {
	return Options{
		Sizes:   []int{1 << 20, 4 << 20},
		Threads: []int{1, 2, 4, 6, 8, 10, 12},
		Reps:    5,
		Warmup:  1,
		Seed:    42,
	}
}

// Fig5 reproduces Figure 5: the speedup of parallel Merge Path over its own
// single-threaded run, one column per input size, one row per thread count.
// The paper reports near-linear speedup up to ~11.7x at 12 threads with a
// slight droop at the largest sizes.
func Fig5(opt Options) *Table {
	header := []string{"threads"}
	for _, n := range opt.Sizes {
		header = append(header, fmt.Sprintf("%s speedup", humanSize(n)))
	}
	t := NewTable("Figure 5 — Merge Path speedup vs single-thread Merge Path (median of reps)", header...)
	t.Note = "Paper (2x6-core X5670): near-linear, ~11.7x at 12 threads, slightly lower for the largest arrays."

	baselines := make([]time.Duration, len(opt.Sizes))
	type input struct{ a, b, out []int32 }
	inputs := make([]input, len(opt.Sizes))
	for i, n := range opt.Sizes {
		a, b := workload.Pair(workload.Uniform, n, n, opt.Seed)
		inputs[i] = input{a: a, b: b, out: make([]int32, 2*n)}
		baselines[i] = stats.Measure(opt.Warmup, opt.Reps, func() {
			core.ParallelMerge(a, b, inputs[i].out, 1)
		}).Median()
	}
	for _, p := range opt.Threads {
		cells := []interface{}{p}
		for i := range opt.Sizes {
			in := inputs[i]
			med := stats.Measure(opt.Warmup, opt.Reps, func() {
				core.ParallelMerge(in.a, in.b, in.out, p)
			}).Median()
			cells = append(cells, stats.Speedup(baselines[i], med))
		}
		t.Addf(cells...)
	}
	return t
}

// Overhead reproduces the §VI remark: single-threaded Merge Path vs a truly
// sequential merge (the paper measured ~6% overhead from the partitioning
// framework and OpenMP).
func Overhead(opt Options) *Table {
	t := NewTable("§VI remark — single-thread Merge Path overhead vs sequential merge",
		"size", "sequential", "mergepath p=1", "overhead %")
	t.Note = "Paper: ~6% slower than a truly sequential merge."
	for _, n := range opt.Sizes {
		a, b := workload.Pair(workload.Uniform, n, n, opt.Seed)
		out := make([]int32, 2*n)
		seq := stats.Measure(opt.Warmup, opt.Reps, func() {
			baseline.SequentialMerge(a, b, out)
		}).Median()
		mp := stats.Measure(opt.Warmup, opt.Reps, func() {
			core.ParallelMerge(a, b, out, 1)
		}).Median()
		t.Addf(humanSize(n), seq.String(), mp.String(),
			100*(float64(mp)-float64(seq))/float64(seq))
	}
	return t
}

// PartitionCost verifies Theorem 14 empirically: comparisons per diagonal
// search against the log2(min(|A|,|B|)) bound across array-size ratios.
func PartitionCost(opt Options) *Table {
	t := NewTable("Theorem 14 — diagonal search cost (comparisons, worst over p-1 diagonals)",
		"|A|", "|B|", "p", "max comparisons", "log2(min)+1 bound")
	n := opt.Sizes[0]
	for _, ratio := range []int{1, 4, 64, 4096} {
		na, nb := n, n/ratio
		if nb < 1 {
			nb = 1
		}
		a, b := workload.Pair(workload.Uniform, na, nb, opt.Seed)
		for _, p := range []int{2, 8, 32} {
			maxSteps := 0
			total := na + nb
			for i := 1; i < p; i++ {
				if _, steps := core.SearchDiagonalCounted(a, b, i*total/p); steps > maxSteps {
					maxSteps = steps
				}
			}
			bound := int(math.Log2(float64(min(na, nb)))) + 1
			t.Addf(humanSize(na), humanSize(nb), p, maxSteps, bound)
		}
	}
	return t
}

// LoadBalance reproduces E4: Merge Path's exact segment balance against
// the Shiloach–Vishkin block partition's up-to-2x imbalance, per workload.
func LoadBalance(opt Options) *Table {
	t := NewTable("E4 — load balance: max/mean elements per processor (1.00 is perfect)",
		"workload", "p", "merge path", "shiloach-vishkin")
	n := opt.Sizes[0]
	for _, kind := range workload.Kinds() {
		a, b := workload.Pair(kind, n, n, opt.Seed)
		for _, p := range []int{4, 12} {
			mean := float64(2*n) / float64(p)
			mpMax := 0
			for _, l := range core.SegmentLengths(core.Partition(a, b, p)) {
				if l > mpMax {
					mpMax = l
				}
			}
			svMax := 0
			for _, l := range baseline.ShiloachVishkinLoads(a, b, p) {
				if l > svMax {
					svMax = l
				}
			}
			t.Addf(string(kind), p, float64(mpMax)/mean, float64(svMax)/mean)
		}
	}
	return t
}

// RelatedWork reproduces E9: wall time of the §V algorithm family on the
// same merge, plus comparison-count work for the bitonic network.
func RelatedWork(opt Options) *Table {
	t := NewTable("E9 — §V related-work comparison (median wall time)",
		"algorithm", "p", "time", "speedup vs seq")
	n := opt.Sizes[0]
	a, b := workload.Pair(workload.Uniform, n, n, opt.Seed)
	out := make([]int32, 2*n)
	seq := stats.Measure(opt.Warmup, opt.Reps, func() {
		baseline.SequentialMerge(a, b, out)
	}).Median()
	t.Addf("sequential", 1, seq.String(), 1.0)
	algos := []struct {
		name string
		run  func(p int)
	}{
		{"merge-path", func(p int) { core.ParallelMerge(a, b, out, p) }},
		{"akl-santoro", func(p int) { baseline.AklSantoroMerge(a, b, out, p) }},
		{"deo-sarkar", func(p int) { baseline.DeoSarkarMerge(a, b, out, p) }},
		{"shiloach-vishkin", func(p int) { baseline.ShiloachVishkinMerge(a, b, out, p) }},
		{"bitonic-merge", func(p int) { bitonic.MergeParallel(a, b, out, p) }},
		{"odd-even-merge", func(p int) { bitonic.OddEvenMerge(a, b, out) }},
	}
	for _, algo := range algos {
		for _, p := range opt.Threads {
			med := stats.Measure(opt.Warmup, opt.Reps, func() { algo.run(p) }).Median()
			t.Addf(algo.name, p, med.String(), stats.Speedup(seq, med))
		}
	}
	t.Note = fmt.Sprintf("bitonic-merge performs %d compare-exchanges vs %d merge steps (Theta(NlogN) vs O(N) work).",
		bitonic.MergeComparators(2*n), 2*n)
	return t
}

// SortSpeedup reproduces E7: parallel merge-sort speedup over its own
// single-thread run, per input size.
func SortSpeedup(opt Options) *Table {
	header := []string{"threads"}
	for _, n := range opt.Sizes {
		header = append(header, fmt.Sprintf("%s speedup", humanSize(n)))
	}
	t := NewTable("E7 — parallel merge sort speedup (§III)", header...)
	type input struct{ data, scratch []int32 }
	inputs := make([]input, len(opt.Sizes))
	baselines := make([]time.Duration, len(opt.Sizes))
	for i, n := range opt.Sizes {
		data := workload.Unsorted(rand.New(rand.NewSource(opt.Seed)), n)
		inputs[i] = input{data: data, scratch: make([]int32, n)}
		baselines[i] = stats.Measure(opt.Warmup, opt.Reps, func() {
			copy(inputs[i].scratch, data)
			psort.Sort(inputs[i].scratch, 1)
		}).Median()
	}
	for _, p := range opt.Threads {
		cells := []interface{}{p}
		for i := range opt.Sizes {
			in := inputs[i]
			med := stats.Measure(opt.Warmup, opt.Reps, func() {
				copy(in.scratch, in.data)
				psort.Sort(in.scratch, p)
			}).Median()
			cells = append(cells, stats.Speedup(baselines[i], med))
		}
		t.Addf(cells...)
	}
	t.Note = "Includes the copy of the input each rep; speedups are therefore slightly compressed."
	return t
}

// WindowSweep is the L-sweep ablation for Algorithm 2: wall time of the
// segmented merge across window sizes, against basic parallel merge.
func WindowSweep(opt Options) *Table {
	t := NewTable("Ablation — SPM window size L (Algorithm 2), wall time",
		"L (elements)", "p", "time", "vs basic parallel merge")
	n := opt.Sizes[0]
	a, b := workload.Pair(workload.Uniform, n, n, opt.Seed)
	out := make([]int32, 2*n)
	for _, p := range []int{1, 4} {
		basic := stats.Measure(opt.Warmup, opt.Reps, func() {
			core.ParallelMerge(a, b, out, p)
		}).Median()
		for _, l := range []int{256, 1024, 4096, 16384, 65536} {
			med := stats.Measure(opt.Warmup, opt.Reps, func() {
				spm.Merge(a, b, out, spm.Config{Window: l, Workers: p})
			}).Median()
			t.Addf(l, p, med.String(), stats.Speedup(basic, med))
		}
	}
	t.Note = "On real hardware SPM pays windowing overhead; its payoff is cache behaviour (see cmd/cachesim)."
	return t
}

// kwayLists builds k sorted runs totalling ~n elements in the named
// skew: "uniform" (independent uniform runs), "dups" (4 distinct
// values — every merge step is a tie), "presorted" (disjoint ascending
// ranges, so the merged output is the concatenation) and "onelong"
// (one run holds ~90% of the data, the rest split the remainder).
func kwayLists(k, n int, skew string, seed int64) [][]int32 {
	lists := make([][]int32, k)
	switch skew {
	case "dups":
		for i := range lists {
			la, _ := workload.Pair(workload.Duplicates, n/k, 0, seed+int64(i))
			lists[i] = la
		}
	case "presorted":
		for i := range lists {
			la, _ := workload.Pair(workload.Uniform, n/k, 0, seed+int64(i))
			off := int32(i) * (1 << 21) // disjoint value ranges in list order
			for j := range la {
				la[j] = la[j]%(1<<20) + off
			}
			lists[i] = la
		}
	case "onelong":
		long := n * 9 / 10
		rest := (n - long) / (k - 1)
		for i := range lists {
			sz := rest
			if i == 0 {
				sz = long
			}
			la, _ := workload.Pair(workload.Uniform, sz, 0, seed+int64(i))
			lists[i] = la
		}
	default: // uniform
		for i := range lists {
			la, _ := workload.Pair(workload.Uniform, n/k, 0, seed+int64(i))
			lists[i] = la
		}
	}
	return lists
}

// KWay benches the two k-way merge strategies — sequential loser tree
// (named heap) and co-ranking windows — across k and input skews, with
// the co-rank per-worker imbalance in the last column (extension
// experiment; algorithms in docs/KWAY.md).
func KWay(opt Options) *Table {
	t := NewTable("Extension — k-way merge strategies: heap vs co-rank",
		"k", "skew", "p", "heap", "corank", "corank-vs-heap", "imbalance")
	n := opt.Sizes[0]
	for _, k := range []int{4, 16, 64} {
		for _, skew := range []string{"uniform", "dups", "presorted", "onelong"} {
			lists := kwayLists(k, n, skew, opt.Seed)
			total := 0
			for _, l := range lists {
				total += len(l)
			}
			dst := make([]int32, total)
			heapTime := stats.Measure(opt.Warmup, opt.Reps, func() {
				kway.MergeIntoStats(dst, lists, 1, kway.StrategyHeap)
			}).Median()
			for _, p := range []int{1, 4} {
				var st kway.Stats
				corank := stats.Measure(opt.Warmup, opt.Reps, func() {
					_, st = kway.MergeIntoStats(dst, lists, p, kway.StrategyCoRank)
				}).Median()
				t.Addf(k, skew, p, heapTime.String(), corank.String(),
					stats.Speedup(heapTime, corank), fmt.Sprintf("%.3f", st.Imbalance))
			}
		}
	}
	t.Note = "Imbalance is max/mean elements per co-rank window (Theorem 5 extended to k runs); ~1.0 on every row by construction."
	return t
}

func humanSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprint(n)
	}
}

// SortNetworks compares the §V sorting-network family against the paper's
// merge-based parallel sort: wall time plus compare-exchange counts (the
// networks' work is Theta(N·log^2 N) vs the merge sort's O(N·logN)
// comparisons).
func SortNetworks(opt Options) *Table {
	t := NewTable("§V family — sorting networks vs parallel merge sort",
		"algorithm", "p", "time", "compare-exchanges")
	n := opt.Sizes[0]
	if n > 1<<19 {
		n = 1 << 19 // the networks are superlinear; keep the sweep quick
	}
	data := workload.Unsorted(rand.New(rand.NewSource(opt.Seed)), n)
	scratch := make([]int32, n)
	mergeComparisons := 0
	for w := 1; w < n; w <<= 1 {
		mergeComparisons += n // at most n comparisons per merge level
	}
	for _, p := range []int{1, 4} {
		med := stats.Measure(opt.Warmup, opt.Reps, func() {
			copy(scratch, data)
			psort.Sort(scratch, p)
		}).Median()
		t.Addf("merge-sort", p, med.String(), mergeComparisons)
		med = stats.Measure(opt.Warmup, opt.Reps, func() {
			copy(scratch, data)
			bitonic.SortParallel(scratch, p)
		}).Median()
		t.Addf("bitonic", p, med.String(), bitonic.SortComparators(n))
		med = stats.Measure(opt.Warmup, opt.Reps, func() {
			copy(scratch, data)
			bitonic.OddEvenSortParallel(scratch, p)
		}).Median()
		t.Addf("odd-even", p, med.String(), bitonic.OddEvenComparators(n))
	}
	t.Note = fmt.Sprintf("n = %s; merge-sort count is the upper bound n per level.", humanSize(n))
	return t
}

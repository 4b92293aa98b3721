// Top-level benchmark harness: one testing.B benchmark per table/figure of
// the paper's evaluation (see DESIGN.md's experiment index). Run with
//
//	go test -bench=. -benchmem
//
// Wall-clock parallel speedups (Fig5, Sort) require a multi-core host;
// on single-core machines use the simulated experiments in cmd/mergebench
// (-experiment fig5sim) and cmd/crewcheck instead.
package mergepath_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mergepath/internal/baseline"
	"mergepath/internal/bitonic"
	"mergepath/internal/cachesim"
	"mergepath/internal/core"
	"mergepath/internal/kway"
	"mergepath/internal/pram"
	"mergepath/internal/psort"
	"mergepath/internal/spm"
	"mergepath/internal/trace"
	"mergepath/internal/workload"
)

const benchN = 1 << 20 // elements per input array for merge benches

func benchPair(b *testing.B, n int) (x, y, out []int32) {
	b.Helper()
	x, y = workload.Pair(workload.Uniform, n, n, 42)
	return x, y, make([]int32, 2*n)
}

// BenchmarkFig5 regenerates Figure 5's measurement: parallel Merge Path
// across thread counts and sizes. Speedup = time(p=1)/time(p).
func BenchmarkFig5(b *testing.B) {
	for _, n := range []int{1 << 20, 4 << 20} {
		x, y, out := benchPair(b, n)
		for _, p := range []int{1, 2, 4, 6, 8, 10, 12} {
			b.Run(fmt.Sprintf("n=%dM/p=%d", n>>20, p), func(b *testing.B) {
				b.SetBytes(int64(len(out)) * 4)
				for i := 0; i < b.N; i++ {
					core.ParallelMerge(x, y, out, p)
				}
			})
		}
	}
}

// BenchmarkOverhead regenerates the §VI remark: sequential merge vs
// single-threaded Merge Path (paper: ~6% overhead).
func BenchmarkOverhead(b *testing.B) {
	x, y, out := benchPair(b, benchN)
	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(int64(len(out)) * 4)
		for i := 0; i < b.N; i++ {
			baseline.SequentialMerge(x, y, out)
		}
	})
	b.Run("mergepath-p1", func(b *testing.B) {
		b.SetBytes(int64(len(out)) * 4)
		for i := 0; i < b.N; i++ {
			core.ParallelMerge(x, y, out, 1)
		}
	})
}

// BenchmarkPartition isolates Theorem 14's cost: p-1 diagonal searches.
func BenchmarkPartition(b *testing.B) {
	x, y, _ := benchPair(b, benchN)
	for _, p := range []int{2, 12, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Partition(x, y, p)
			}
		})
	}
}

// BenchmarkSearchVariants times one co-rank diagonal search at the
// middle diagonal of a benchN pair.
func BenchmarkSearchVariants(b *testing.B) {
	x, y, _ := benchPair(b, benchN)
	k := benchN // middle diagonal
	b.Run("corank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SearchDiagonal(x, y, k)
		}
	})
}

// BenchmarkRelatedWork regenerates E9: the §V algorithm family on one
// merge, p=4.
func BenchmarkRelatedWork(b *testing.B) {
	x, y, out := benchPair(b, benchN)
	const p = 4
	algos := map[string]func(){
		"mergepath":        func() { core.ParallelMerge(x, y, out, p) },
		"akl-santoro":      func() { baseline.AklSantoroMerge(x, y, out, p) },
		"deo-sarkar":       func() { baseline.DeoSarkarMerge(x, y, out, p) },
		"shiloach-vishkin": func() { baseline.ShiloachVishkinMerge(x, y, out, p) },
		"bitonic":          func() { bitonic.MergeParallel(x, y, out, p) },
	}
	for name, f := range algos {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(out)) * 4)
			for i := 0; i < b.N; i++ {
				f()
			}
		})
	}
}

// BenchmarkSPM regenerates the Algorithm 2 window ablation (wall time; the
// cache payoff is measured by cmd/cachesim, not here).
func BenchmarkSPM(b *testing.B) {
	x, y, out := benchPair(b, benchN)
	for _, window := range []int{1024, 4096, 16384} {
		for _, p := range []int{1, 4} {
			b.Run(fmt.Sprintf("L=%d/p=%d", window, p), func(b *testing.B) {
				b.SetBytes(int64(len(out)) * 4)
				for i := 0; i < b.N; i++ {
					spm.Merge(x, y, out, spm.Config{Window: window, Workers: p})
				}
			})
		}
	}
}

// BenchmarkSort regenerates E7: parallel merge sort across thread counts.
func BenchmarkSort(b *testing.B) {
	data := workload.Unsorted(rand.New(rand.NewSource(42)), benchN)
	scratch := make([]int32, benchN)
	for _, p := range []int{1, 2, 4, 8, 12} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(benchN) * 4)
			for i := 0; i < b.N; i++ {
				copy(scratch, data)
				psort.Sort(scratch, p)
			}
		})
	}
}

// BenchmarkCacheEfficientSort regenerates the §IV.C variant's wall time
// next to the basic parallel sort.
func BenchmarkCacheEfficientSort(b *testing.B) {
	data := workload.Unsorted(rand.New(rand.NewSource(42)), benchN)
	scratch := make([]int32, benchN)
	cacheElems := (256 << 10) / 4
	b.Run("basic", func(b *testing.B) {
		b.SetBytes(int64(benchN) * 4)
		for i := 0; i < b.N; i++ {
			copy(scratch, data)
			psort.Sort(scratch, 4)
		}
	})
	b.Run("cache-efficient", func(b *testing.B) {
		b.SetBytes(int64(benchN) * 4)
		for i := 0; i < b.N; i++ {
			copy(scratch, data)
			psort.CacheEfficientSort(scratch, cacheElems, 4)
		}
	})
}

// BenchmarkBitonicSort regenerates the §V taxonomy contrast: network sort
// (superlinear work) vs merge sort at the same size.
func BenchmarkBitonicSort(b *testing.B) {
	const n = 1 << 18 // the network is O(N log^2 N); keep it modest
	data := workload.Unsorted(rand.New(rand.NewSource(42)), n)
	scratch := make([]int32, n)
	b.Run("bitonic-p4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, data)
			bitonic.SortParallel(scratch, 4)
		}
	})
	b.Run("mergesort-p4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, data)
			psort.Sort(scratch, 4)
		}
	})
}

// BenchmarkKWay regenerates the extension experiment: kway.Merge (auto,
// co-ranking at this size) vs the heap merge over 16 runs.
func BenchmarkKWay(b *testing.B) {
	const k, runLen = 16, 1 << 16
	lists := make([][]int32, k)
	for i := range lists {
		lists[i], _ = workload.Pair(workload.Uniform, runLen, 0, int64(i))
	}
	b.Run("merge-p4", func(b *testing.B) {
		b.SetBytes(int64(k*runLen) * 4)
		for i := 0; i < b.N; i++ {
			kway.Merge(lists, 4)
		}
	})
	b.Run("heap", func(b *testing.B) {
		b.SetBytes(int64(k*runLen) * 4)
		for i := 0; i < b.N; i++ {
			kway.HeapMerge(lists)
		}
	})
}

// BenchmarkCacheSimThroughput measures the simulator substrate itself
// (accesses replayed per second), so cache-experiment runtimes are
// predictable.
func BenchmarkCacheSimThroughput(b *testing.B) {
	x, y, _ := benchPair(b, 1<<14)
	space := trace.NewSpace()
	lay := trace.StandardLayout(space, len(x), len(y), 64)
	events := trace.RoundRobin(trace.ParallelMerge(x, y, 4, lay))
	b.SetBytes(int64(len(events)))
	for i := 0; i < b.N; i++ {
		sys := cachesim.NewSystem(cachesim.SystemConfig{
			Cores:  4,
			Shared: &cachesim.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		})
		sys.Run(events)
	}
}

// BenchmarkPRAMAudit measures the conformance checker substrate.
func BenchmarkPRAMAudit(b *testing.B) {
	x, y, _ := benchPair(b, 1<<14)
	for i := 0; i < b.N; i++ {
		m := pram.NewMachine(4)
		pram.ParallelMerge(m, m.NewArray(x), m.NewArray(y))
	}
}

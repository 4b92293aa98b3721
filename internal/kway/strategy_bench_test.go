package kway

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mergepath/internal/workload"
)

// BenchmarkKWayStrategies compares the two strategies over a k sweep
// at a fixed total output size (so the heap and co-rank columns are
// directly comparable per row). `make bench-kway` runs it.
func BenchmarkKWayStrategies(b *testing.B) {
	const total = 1 << 20
	p := runtime.GOMAXPROCS(0)
	for _, k := range []int{4, 16, 64} {
		rng := rand.New(rand.NewSource(42))
		lists := make([][]int32, k)
		for i := range lists {
			lists[i] = workload.SortedUniform32(rng, total/k)
		}
		dst := make([]int32, total)
		for _, strat := range []Strategy{StrategyHeap, StrategyCoRank} {
			b.Run(fmt.Sprintf("k=%d/%s", k, strat), func(b *testing.B) {
				b.SetBytes(int64(total) * 4)
				for i := 0; i < b.N; i++ {
					MergeIntoStats(dst, lists, p, strat)
				}
			})
		}
	}
}

// BenchmarkCoRankSearch isolates the partitioner: the p-1 cut searches
// must stay microscopic next to the merge itself.
func BenchmarkCoRankSearch(b *testing.B) {
	const total = 1 << 20
	for _, k := range []int{4, 16, 64} {
		rng := rand.New(rand.NewSource(7))
		lists := make([][]int32, k)
		for i := range lists {
			lists[i] = workload.SortedUniform32(rng, total/k)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CoRank(lists, total/2)
			}
		})
	}
}

// kernelShape is one int64 input shape of BenchmarkKWayKernel.
type kernelShape struct {
	name  string
	k     int
	total int
	lists func(rng *rand.Rand, k, total int) [][]int64
}

// BenchmarkKWayKernel measures the k-way window kernel in ns per output
// element on int64 keys, at the shapes the service runs: a k=16 mergek
// request of 384K elements, and one extsort merge round at M = 64K,
// where F runs each buffer M/(3F) records. The k=32 and k=64 rounds are
// the evidence behind extsort.DefaultFanIn: one F-way round should cost
// no more per element than log_8(F) rounds at fan-in 8. The disjoint,
// duplicate-heavy and all-equal rows exercise the run fast path. `make
// bench-kway` runs it.
func BenchmarkKWayKernel(b *testing.B) {
	const round = 1 << 16 / 3 // one extsort merge round's output at M = 64K
	p := runtime.GOMAXPROCS(0)
	shapes := []kernelShape{
		{"mergek", 16, 384 << 10, strideRuns},
		{"extsort-round", 8, round, equalStrideRuns},
		{"extsort-round", 32, round, equalStrideRuns},
		{"extsort-round", 64, round, equalStrideRuns},
		{"disjoint", 16, 384 << 10, func(_ *rand.Rand, k, total int) [][]int64 {
			return fillRuns(k, total, func(i, j int) int64 { return int64(i*total + j) })
		}},
		{"duplicates", 16, 384 << 10, func(rng *rand.Rand, k, total int) [][]int64 {
			lists := fillRuns(k, total, func(int, int) int64 { return rng.Int63n(4) })
			for _, l := range lists {
				slices.Sort(l)
			}
			return lists
		}},
		{"all-equal", 16, 384 << 10, func(_ *rand.Rand, k, total int) [][]int64 {
			return fillRuns(k, total, func(int, int) int64 { return 7 })
		}},
	}
	for _, sh := range shapes {
		lists := sh.lists(rand.New(rand.NewSource(42)), sh.k, sh.total)
		dst := make([]int64, sh.total)
		for _, strat := range []Strategy{StrategyHeap, StrategyCoRank} {
			b.Run(fmt.Sprintf("%s/k=%d/n=%d/%s", sh.name, sh.k, sh.total, strat), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MergeIntoStats(dst, lists, p, strat)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sh.total), "ns/elem")
			})
		}
	}
}

// strideRuns cuts total uniform keys (span 2·total, so some repeat,
// spaced by a stride) into k sorted runs at random cut points, the
// shape of a mergek request.
func strideRuns(rng *rand.Rand, k, total int) [][]int64 {
	cuts := make([]int, k-1)
	for i := range cuts {
		cuts[i] = rng.Intn(total + 1)
	}
	slices.Sort(cuts)
	lists := make([][]int64, 0, k)
	prev := 0
	for _, c := range append(cuts, total) {
		lists = append(lists, strideKeys(rng, c-prev, total))
		prev = c
	}
	return lists
}

// equalStrideRuns is strideRuns with equal run lengths, the shape of an
// extsort merge round's buffered windows.
func equalStrideRuns(rng *rand.Rand, k, total int) [][]int64 {
	lists := make([][]int64, k)
	for i := range lists {
		lists[i] = strideKeys(rng, total/k, total)
	}
	return lists
}

// strideKeys returns n sorted keys drawn from 2·total distinct values
// spaced 1000 apart.
func strideKeys(rng *rand.Rand, n, total int) []int64 {
	l := make([]int64, n)
	for j := range l {
		l[j] = (rng.Int63n(2*int64(total)) - int64(total)) * 1000
	}
	slices.Sort(l)
	return l
}

// fillRuns builds k runs of total/k keys with key(i, j) for run i,
// position j.
func fillRuns(k, total int, key func(i, j int) int64) [][]int64 {
	lists := make([][]int64, k)
	for i := range lists {
		lists[i] = make([]int64, total/k)
		for j := range lists[i] {
			lists[i][j] = key(i, j)
		}
	}
	return lists
}

package psort

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mergepath/internal/workload"
)

func BenchmarkSortWorkers(b *testing.B) {
	const n = 1 << 20
	data := workload.Unsorted(rand.New(rand.NewSource(1)), n)
	scratch := make([]int32, n)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(n) * 4)
			for i := 0; i < b.N; i++ {
				copy(scratch, data)
				Sort(scratch, p)
			}
		})
	}
}

// BenchmarkSeqSortKernel times the phase-1 leaf. The int32 row is the
// merge-sort leaf; the int64 rows time both leaves on uniform full-range
// keys (every radix pass runs) at sizes around radixMinRun and at the
// run cap, reporting ns/elem, so the cutoff can be read off the table.
// The float64 row is the comparison leaf on one full run. A full run's
// ns/op is the longest a canceled sort keeps a worker in phase 1.
func BenchmarkSeqSortKernel(b *testing.B) {
	b.Run("int32/merge/n=256K", func(b *testing.B) {
		const n = 1 << 18
		data := workload.Unsorted(rand.New(rand.NewSource(2)), n)
		work := make([]int32, n)
		scratch := make([]int32, n)
		b.SetBytes(int64(n) * 4)
		for i := 0; i < b.N; i++ {
			copy(work, data)
			seqSort(work, scratch)
		}
	})
	leaves := []struct {
		name string
		sort func(s, scratch []int64)
	}{
		{"merge", mergeSortLeaf[int64]},
		{"radix", radixSortInt64},
	}
	b.Run(fmt.Sprintf("float64/merge/n=%dK", maxRunElems>>10), func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		data := make([]float64, maxRunElems)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		work := make([]float64, len(data))
		scratch := make([]float64, len(data))
		b.SetBytes(int64(len(data)) * 8)
		for i := 0; i < b.N; i++ {
			copy(work, data)
			seqSort(work, scratch)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/elem")
	})
	for _, n := range []int{1 << 10, 1 << 11, 1 << 12, maxRunElems} {
		rng := rand.New(rand.NewSource(2))
		data := make([]int64, n)
		for i := range data {
			data[i] = int64(rng.Uint64())
		}
		work := make([]int64, n)
		scratch := make([]int64, n)
		for _, leaf := range leaves {
			b.Run(fmt.Sprintf("int64/%s/n=%dK", leaf.name, n>>10), func(b *testing.B) {
				b.SetBytes(int64(n) * 8)
				for i := 0; i < b.N; i++ {
					copy(work, data)
					leaf.sort(work, scratch)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}

func BenchmarkCacheEfficientSortWindow(b *testing.B) {
	const n = 1 << 20
	data := workload.Unsorted(rand.New(rand.NewSource(3)), n)
	scratch := make([]int32, n)
	for _, cacheKB := range []int{32, 256, 2048} {
		b.Run(fmt.Sprintf("cache=%dKB", cacheKB), func(b *testing.B) {
			b.SetBytes(int64(n) * 4)
			for i := 0; i < b.N; i++ {
				copy(scratch, data)
				CacheEfficientSort(scratch, cacheKB<<10/4, 4)
			}
		})
	}
}

func BenchmarkSortDataflowVsRounds(b *testing.B) {
	const n = 1 << 20
	data := workload.Unsorted(rand.New(rand.NewSource(4)), n)
	scratch := make([]int32, n)
	for _, p := range []int{4, 8} {
		b.Run(fmt.Sprintf("sort/p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(n) * 4)
			for i := 0; i < b.N; i++ {
				copy(scratch, data)
				Sort(scratch, p)
			}
		})
		b.Run(fmt.Sprintf("dataflow/p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(n) * 4)
			for i := 0; i < b.N; i++ {
				copy(scratch, data)
				SortDataflow(scratch, p, 0)
			}
		})
	}
}

// servedSortSizes are the five /v1/sort sizes of perfbench's
// rpc-large-binary workload; the fourth sets its p90.
var servedSortSizes = []int{288358, 340787, 393216, 445645, 498074}

// BenchmarkServedSort times the daemon's large sorts at p = 2 on keys
// drawn like perfbench's (2n distinct values, spread over ~17 decimal
// digits). "lend" is the server's call, SortInto into a reused buffer
// under a cancelable ctx; "alloc" is SortCtxStats, which allocates its
// destination and copies the result back.
func BenchmarkServedSort(b *testing.B) {
	const p = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, n := range servedSortSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		data := make([]int64, n)
		for i := range data {
			data[i] = (rng.Int63n(int64(2*n)) - int64(n)) * (1<<40 + 1)
		}
		work := make([]int64, n)
		dst := make([]int64, n)
		b.Run(fmt.Sprintf("lend/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				copy(work, data)
				if _, err := SortInto(ctx, dst, work, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("alloc/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				copy(work, data)
				if _, err := SortCtxStats(ctx, work, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package extsort

import (
	"fmt"
	"math/rand"
	"testing"

	"mergepath/internal/kway"
	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

// TestSortKWayStrategyIdentical pins the Config.KWay contract: the
// sorted device contents are byte-identical whichever in-window merge
// strategy the fan-in phase uses, and a forced co-rank run reports its
// window balance in Stats.
func TestSortKWayStrategyIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	for trial := 0; trial < 10; trial++ {
		n := 2000 + rng.Intn(4000)
		m := 64 + rng.Intn(200)
		data := workload.Unsorted(rng, n)
		var want []int32
		for _, strat := range []kway.Strategy{kway.StrategyAuto, kway.StrategyHeap, kway.StrategyTree, kway.StrategyCoRank} {
			dev := NewBlockDevice[int32](n, 16)
			dev.Load(data)
			stats := sortMem(t, dev, n, Config{MemoryRecords: m, Workers: 2, KWay: strat})
			got := dev.Snapshot(n)
			if want == nil {
				want = got
				continue
			}
			if !verify.Equal(got, want) {
				t.Fatalf("trial %d strategy %v: sorted output differs", trial, strat)
			}
			if strat == kway.StrategyCoRank && stats.MergePasses > 0 {
				if stats.KWayImbalanceMax == 0 || stats.KWayImbalanceMax > 1.5 {
					t.Fatalf("trial %d: co-rank imbalance %.3f, want ~1.0", trial, stats.KWayImbalanceMax)
				}
			}
		}
	}
}

// BenchmarkSortFanInStrategies measures the external-sort fan-in delta
// between the in-window merge strategies — the X15 extsort column.
func BenchmarkSortFanInStrategies(b *testing.B) {
	const n = 1 << 18
	const m = 1 << 13 // 32 runs -> fan-in 8 merge tree, 2 passes
	rng := rand.New(rand.NewSource(161))
	data := workload.Unsorted(rng, n)
	for _, strat := range []kway.Strategy{kway.StrategyHeap, kway.StrategyTree, kway.StrategyCoRank} {
		b.Run(fmt.Sprintf("strategy=%s", strat), func(b *testing.B) {
			b.SetBytes(int64(n) * 4)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev := NewBlockDevice[int32](n, 1024)
				dev.Load(data)
				scratch := NewBlockDevice[int32](n, 1024)
				b.StartTimer()
				if _, err := Sort(bg, dev, scratch, n, Config{MemoryRecords: m, Workers: 2, FanIn: 8, KWay: strat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

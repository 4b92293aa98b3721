package harness

import (
	"context"
	"math/rand"

	"mergepath/internal/extsort"
	"mergepath/internal/workload"
)

// ExternalSortIO is the external-sorting extension experiment: block I/O
// of the merge-path-based external sort as the in-memory workspace M
// shrinks, against the analytic 2·N/B·(1+ceil(log2(N/M))) transfer count.
// It demonstrates the paper's algorithm working as the engine of the
// textbook external merge sort with the I/O behaviour theory predicts.
func ExternalSortIO(opt Options) *Table {
	t := NewTable("Extension — external merge sort on a simulated block device",
		"N records", "M records", "runs", "passes", "block transfers", "analytic 2N/B(1+passes)", "ratio")
	n := opt.Sizes[0]
	if n > 1<<20 {
		n = 1 << 20 // the device simulation is per-access; cap it
	}
	const block = 16
	data := workload.Unsorted(rand.New(rand.NewSource(opt.Seed)), n)
	for _, m := range []int{n / 256, n / 64, n / 16, n / 4} {
		if m < 6 {
			continue
		}
		dev := extsort.NewBlockDevice[int32](n, block)
		dev.Load(data)
		scratch := extsort.NewBlockDevice[int32](n, block)
		stats, err := extsort.Sort(context.Background(), dev, scratch, n,
			extsort.Config{MemoryRecords: m, Workers: 4})
		if err != nil {
			panic(err) // in-memory devices cannot fail; config is static
		}
		got := stats.BlockReads + stats.BlockWrites
		analytic := uint64(2 * (n / block) * (1 + stats.MergePasses))
		t.Addf(humanSize(n), humanSize(m), stats.Runs, stats.MergePasses, got, analytic,
			float64(got)/float64(analytic))
	}
	t.Note = "ratio > 1 is block-rounding of buffered reads; passes shrink with the k-way fan-in, which the engine plans so every run's merge window holds one block."
	return t
}

package extsort

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"mergepath/internal/psort"
	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

var bg = context.Background()

// sortMem runs Sort on an in-memory device pair, failing the test on any
// error — the common setup of the accounting tests.
func sortMem(t *testing.T, dev *BlockDevice[int32], n int, cfg Config) Stats {
	t.Helper()
	scratch := NewBlockDevice[int32](n, dev.BlockRecords())
	stats, err := Sort(bg, dev, scratch, n, cfg)
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	return stats
}

func TestBlockDeviceBasics(t *testing.T) {
	d := NewBlockDevice[int32](64, 8)
	if d.Capacity() != 64 || d.BlockRecords() != 8 {
		t.Fatal("geometry wrong")
	}
	d.Write(0, []int32{1, 2, 3})
	got := make([]int32, 3)
	d.Read(0, got)
	if got[0] != 1 || got[2] != 3 {
		t.Fatalf("roundtrip: %v", got)
	}
	r, w := d.Stats()
	if r != 1 || w != 1 {
		t.Fatalf("io counts: r=%d w=%d", r, w)
	}
	// Range straddling a block boundary charges both blocks.
	d.ResetStats()
	d.Write(6, []int32{9, 9, 9, 9}) // records 6..9 touch blocks 0 and 1
	if _, w := d.Stats(); w != 2 {
		t.Fatalf("straddling write charged %d blocks", w)
	}
	// Zero-length I/O is free.
	d.Read(0, nil)
	if r, _ := d.Stats(); r != 0 {
		t.Fatalf("empty read charged %d", r)
	}
}

func TestBlockDevicePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"read-oob":    func() { NewBlockDevice[int32](4, 2).Read(2, make([]int32, 3)) },
		"write-oob":   func() { NewBlockDevice[int32](4, 2).Write(-1, make([]int32, 1)) },
		"zero-block":  func() { NewBlockDevice[int32](4, 0) },
		"neg-cap":     func() { NewBlockDevice[int32](-1, 2) },
		"load-exceed": func() { NewBlockDevice[int32](1, 1).Load(make([]int32, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSortCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(5000)
		m := MinMemoryRecords + rng.Intn(200)
		block := 1 + rng.Intn(16)
		p := 1 + rng.Intn(4)
		data := workload.Unsorted(rng, n)
		dev := NewBlockDevice[int32](n, block)
		dev.Load(data)
		stats := sortMem(t, dev, n, Config{MemoryRecords: m, Workers: p})
		got := dev.Snapshot(n)
		if !verify.Sorted(got) {
			t.Fatalf("n=%d m=%d block=%d fanin=%d: not sorted", n, m, block, stats.FanIn)
		}
		if !verify.SameMultiset(got, data) {
			t.Fatalf("n=%d m=%d: records lost", n, m)
		}
		if n > 0 && stats.Runs != (n+m-1)/m {
			t.Fatalf("n=%d m=%d: %d runs, want %d", n, m, stats.Runs, (n+m-1)/m)
		}
		if stats.PeakBufferRecords > m {
			t.Fatalf("n=%d m=%d fanin=%d: peak buffer %d exceeds budget %d",
				n, m, stats.FanIn, stats.PeakBufferRecords, m)
		}
	}
}

func TestSortEmptyAndTiny(t *testing.T) {
	dev := NewBlockDevice[int32](10, 4)
	stats, err := Sort(bg, dev, nil, 0, Config{MemoryRecords: MinMemoryRecords})
	if err != nil {
		t.Fatalf("empty sort: %v", err)
	}
	if stats.Runs != 0 || stats.BlockReads != 0 {
		t.Fatalf("empty sort: %+v", stats)
	}
	dev.Load([]int32{3})
	// n <= memory needs no scratch device at all.
	if _, err := Sort(bg, dev, nil, 1, Config{MemoryRecords: MinMemoryRecords}); err != nil {
		t.Fatalf("single record: %v", err)
	}
	if dev.Snapshot(1)[0] != 3 {
		t.Fatal("single record")
	}
}

func TestSortErrors(t *testing.T) {
	dev := NewBlockDevice[int32](8, 2)
	cases := map[string]error{
		"nil-device": func() error {
			_, err := Sort[int32](bg, nil, nil, 0, Config{MemoryRecords: 6})
			return err
		}(),
		"range": func() error {
			_, err := Sort(bg, dev, NewBlockDevice[int32](9, 2), 9, Config{MemoryRecords: 6})
			return err
		}(),
		"mem": func() error {
			_, err := Sort(bg, dev, NewBlockDevice[int32](8, 2), 8, Config{MemoryRecords: MinMemoryRecords - 1})
			return err
		}(),
		"no-scratch": func() error {
			_, err := Sort(bg, dev, nil, 8, Config{MemoryRecords: 6})
			return err
		}(),
		"short-scratch": func() error {
			_, err := Sort(bg, dev, NewBlockDevice[int32](4, 2), 8, Config{MemoryRecords: 6})
			return err
		}(),
	}
	for name, err := range cases {
		if err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSortIOBound(t *testing.T) {
	// The external merge sort bound: run formation reads+writes everything
	// once; each of ceil(log_F(ceil(N/M))) passes reads+writes everything
	// once; plus per-window block rounding slack. Run formation writes to
	// the device the first pass reads, so no copy-back pass is needed.
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 20; trial++ {
		n := 1000 + rng.Intn(20000)
		m := 60 + rng.Intn(500)
		block := 4 + rng.Intn(13)
		data := workload.Unsorted(rng, n)
		dev := NewBlockDevice[int32](n, block)
		dev.Load(data)
		stats := sortMem(t, dev, n, Config{MemoryRecords: m, Workers: 2})

		runs := (n + m - 1) / m
		passes := 0
		for w := m; w < n; w *= stats.FanIn {
			passes++
		}
		if stats.MergePasses != passes {
			t.Fatalf("n=%d m=%d fanin=%d: %d passes, want %d", n, m, stats.FanIn, stats.MergePasses, passes)
		}
		window := m / (3 * stats.FanIn)
		if window < 1 {
			window = 1
		}
		blocksN := uint64((n + block - 1) / block)
		// Generous rounding slack: every buffered read/write can waste one
		// block at each end. Per pass there are at most n/window emit
		// rounds, each with fanIn refills plus one write, plus per-run
		// tails.
		slackPerPass := uint64(2 * (stats.FanIn + 2) * (n/window + 2*runs + 2))
		totalPasses := uint64(passes + 1) // formation + passes
		bound := 2 * totalPasses * (blocksN + slackPerPass)
		if got := stats.BlockReads + stats.BlockWrites; got > bound {
			t.Fatalf("n=%d m=%d block=%d: %d block transfers exceed bound %d",
				n, m, block, got, bound)
		}
	}
}

func TestSortIOScalesWithLogRuns(t *testing.T) {
	// Doubling memory (reducing runs) must not increase total I/O.
	n := 1 << 15
	data := workload.Unsorted(rand.New(rand.NewSource(152)), n)
	var prev uint64 = math.MaxUint64
	for _, m := range []int{1 << 8, 1 << 10, 1 << 12, 1 << 14} {
		dev := NewBlockDevice[int32](n, 16)
		dev.Load(data)
		stats := sortMem(t, dev, n, Config{MemoryRecords: m, Workers: 2})
		total := stats.BlockReads + stats.BlockWrites
		if total > prev {
			t.Fatalf("m=%d: I/O %d grew from %d with more memory", m, total, prev)
		}
		prev = total
		if !verify.Sorted(dev.Snapshot(n)) {
			t.Fatalf("m=%d: not sorted", m)
		}
	}
}

func TestSortQuick(t *testing.T) {
	f := func(raw []int32, mSeed uint8, blockSeed uint8) bool {
		n := len(raw)
		dev := NewBlockDevice[int32](n, 1+int(blockSeed)%8)
		dev.Load(raw)
		scratch := NewBlockDevice[int32](n, dev.BlockRecords())
		if _, err := Sort(bg, dev, scratch, n, Config{MemoryRecords: MinMemoryRecords + int(mSeed), Workers: 1}); err != nil {
			return false
		}
		got := dev.Snapshot(n)
		return verify.Sorted(got) && verify.SameMultiset(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// datasets for the differential tests: each returns n records.
var differentialInputs = map[string]func(rng *rand.Rand, n int) []int64{
	"random": func(rng *rand.Rand, n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = rng.Int63n(1 << 40)
		}
		return s
	},
	"duplicate-heavy": func(rng *rand.Rand, n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = rng.Int63n(16)
		}
		return s
	},
	"presorted": func(rng *rand.Rand, n int) []int64 {
		s := make([]int64, n)
		v := int64(0)
		for i := range s {
			v += rng.Int63n(4)
			s[i] = v
		}
		return s
	},
}

// TestSortDifferentialFileBacked external-sorts a file-backed dataset and
// compares byte-for-byte against psort.Sort of the same data in RAM, at
// sizes spanning 1x, 3x and 10x the memory budget, across input shapes.
func TestSortDifferentialFileBacked(t *testing.T) {
	const m = 2048
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(153))
	for shape, gen := range differentialInputs {
		for _, factor := range []int{1, 3, 10} {
			n := factor * m
			data := gen(rng, n)
			want := append([]int64(nil), data...)
			psort.Sort(want, 4)

			dev, err := CreateFileDevice(filepath.Join(dir, "data.bin"), n, 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.Write(0, data); err != nil {
				t.Fatal(err)
			}
			dev.ResetStats()
			scratch, err := CreateFileDevice(filepath.Join(dir, "scratch.bin"), n, 64)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := Sort[int64](bg, dev, scratch, n, Config{MemoryRecords: m, Workers: 4})
			if err != nil {
				t.Fatalf("%s x%d: %v", shape, factor, err)
			}
			got := make([]int64, n)
			if err := dev.Read(0, got); err != nil {
				t.Fatal(err)
			}
			if !verify.Equal(got, want) {
				t.Fatalf("%s x%d: external and in-RAM sorts disagree", shape, factor)
			}
			if stats.PeakBufferRecords > m {
				t.Fatalf("%s x%d: peak buffer %d exceeds budget %d", shape, factor, stats.PeakBufferRecords, m)
			}
			if factor > 1 && stats.MergePasses == 0 {
				t.Fatalf("%s x%d: expected at least one merge pass", shape, factor)
			}
			if err := dev.Remove(); err != nil {
				t.Fatal(err)
			}
			if err := scratch.Remove(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSortProgressMonotonic checks the progress contract: done never
// decreases, total is fixed, and the final call reports done == total.
func TestSortProgressMonotonic(t *testing.T) {
	n, m := 10000, 512
	data := workload.Unsorted(rand.New(rand.NewSource(154)), n)
	dev := NewBlockDevice[int32](n, 16)
	dev.Load(data)
	scratch := NewBlockDevice[int32](n, 16)
	var lastDone, sawTotal int64
	phases := map[string]bool{}
	_, err := Sort(bg, dev, scratch, n, Config{
		MemoryRecords: m,
		Workers:       2,
		Progress: func(done, total int64, phase string) {
			if done < lastDone {
				t.Errorf("progress went backwards: %d -> %d", lastDone, done)
			}
			if sawTotal != 0 && total != sawTotal {
				t.Errorf("total changed: %d -> %d", sawTotal, total)
			}
			lastDone, sawTotal = done, total
			phases[phase] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != sawTotal {
		t.Fatalf("final progress %d != total %d", lastDone, sawTotal)
	}
	if !phases["run_formation"] || !phases["merge"] {
		t.Fatalf("missing phases: %v", phases)
	}
}

// TestSortCancellation checks that a context canceled mid-merge stops the
// sort at a window boundary with the context's error.
func TestSortCancellation(t *testing.T) {
	n, m := 50000, 256
	data := workload.Unsorted(rand.New(rand.NewSource(155)), n)
	dev := NewBlockDevice[int32](n, 16)
	dev.Load(data)
	scratch := NewBlockDevice[int32](n, 16)
	ctx, cancel := context.WithCancel(bg)
	_, err := Sort(ctx, dev, scratch, n, Config{
		MemoryRecords: m,
		Progress: func(done, total int64, phase string) {
			if phase == "merge" {
				cancel() // first merge window: abandon the job
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("error should say canceled: %v", err)
	}

	// Already-canceled context: fails in run formation.
	dev2 := NewBlockDevice[int32](100, 16)
	dev2.Load(workload.Unsorted(rand.New(rand.NewSource(156)), 100))
	ctx2, cancel2 := context.WithCancel(bg)
	cancel2()
	if _, err := Sort(ctx2, dev2, NewBlockDevice[int32](100, 16), 100, Config{MemoryRecords: 16}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: want context.Canceled, got %v", err)
	}
}

// TestPlanFanIn pins the pass plan: the fewest passes whose per-run
// window M/(3F) holds one block, then the smallest fan-in that still
// reaches every run in that many passes.
func TestPlanFanIn(t *testing.T) {
	for _, c := range []struct {
		n, m, block   int
		fanIn, passes int
	}{
		{2 << 20, 64 << 10, 512, 32, 1},   // 32 runs, window 682 >= 512
		{100 << 16, 64 << 10, 512, 10, 2}, // 100 runs > 42-way limit: 10x10
		{2 << 20, 64 << 10, 64, 32, 1},    // a smaller block does not widen F past the runs
		{200 << 16, 64 << 10, 64, 15, 2},  // 200 runs > DefaultFanIn
		{1000, 60, 16, 2, 5},              // M < 6 blocks: binary merge tree
		{1000, 1000, 16, 2, 0},            // one run: no merge
		{0, 64, 4, 2, 0},
		{2 << 20, 64 << 10, 0, 32, 1}, // a device reporting 0-record blocks plans as 1
	} {
		fanIn := planFanIn(c.n, c.m, c.block)
		if passes := mergePasses(c.n, c.m, fanIn); fanIn != c.fanIn || passes != c.passes {
			t.Errorf("plan(n=%d, M=%d, block=%d) = (F=%d, %d passes), want (%d, %d)",
				c.n, c.m, c.block, fanIn, passes, c.fanIn, c.passes)
		}
	}
}

// TestSortOddPassesLandOnDev sorts file-backed data through one and
// through three merge passes: run formation writes to scratch when the
// pass count is odd, so the sorted result must still end on dev. The
// device block size steers the plan: at M = 1536, 64-record blocks
// allow one 8-way pass over the 8 runs, while 256-record blocks cap the
// fan-in at M/(3·256) = 2, so three binary passes.
func TestSortOddPassesLandOnDev(t *testing.T) {
	const m, n = 1536, 8 * 1536
	dir := t.TempDir()
	data := differentialInputs["random"](rand.New(rand.NewSource(157)), n)
	want := append([]int64(nil), data...)
	psort.Sort(want, 2)
	for _, c := range []struct{ block, fanIn, passes int }{{64, 8, 1}, {256, 2, 3}} {
		dev, err := CreateFileDevice(filepath.Join(dir, "data.bin"), n, c.block)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Write(0, data); err != nil {
			t.Fatal(err)
		}
		scratch, err := CreateFileDevice(filepath.Join(dir, "scratch.bin"), n, c.block)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Sort[int64](bg, dev, scratch, n, Config{MemoryRecords: m, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if stats.FanIn != c.fanIn || stats.MergePasses != c.passes {
			t.Fatalf("block %d: %d passes at fan-in %d, want %d at %d",
				c.block, stats.MergePasses, stats.FanIn, c.passes, c.fanIn)
		}
		got := make([]int64, n)
		if err := dev.Read(0, got); err != nil {
			t.Fatal(err)
		}
		if !verify.Equal(got, want) {
			t.Fatalf("fan-in %d (%d passes): dev does not hold the sorted result", c.fanIn, c.passes)
		}
		if err := dev.Remove(); err != nil {
			t.Fatal(err)
		}
		if err := scratch.Remove(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSortKWayImbalance: merge rounds of a few runs at a wide budget
// emit well over the co-rank threshold, so the auto in-window merge
// co-ranks and Stats reports its window balance (~1.0, the k-way
// Theorem 5 check).
func TestSortKWayImbalance(t *testing.T) {
	const n, m = 1 << 18, 1 << 16 // 4 runs, one 4-way pass
	rng := rand.New(rand.NewSource(160))
	for trial := 0; trial < 3; trial++ {
		data := workload.Unsorted(rng, n)
		dev := NewBlockDevice[int32](n, 16)
		dev.Load(data)
		stats := sortMem(t, dev, n, Config{MemoryRecords: m, Workers: 2})
		if got := dev.Snapshot(n); !verify.Sorted(got) || !verify.SameMultiset(got, data) {
			t.Fatalf("trial %d: output is not the sorted input", trial)
		}
		if stats.MergePasses != 1 || stats.FanIn != 4 {
			t.Fatalf("trial %d: %d passes at fan-in %d, want 1 at 4", trial, stats.MergePasses, stats.FanIn)
		}
		if stats.KWayImbalanceMax <= 0 || stats.KWayImbalanceMax > 1.5 {
			t.Fatalf("trial %d: k-way imbalance %.3f, want in (0, 1.5]", trial, stats.KWayImbalanceMax)
		}
	}
}

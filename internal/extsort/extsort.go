package extsort

import (
	"cmp"
	"context"
	"fmt"
	"sort"

	"mergepath/internal/kway"
	"mergepath/internal/psort"
)

// MinMemoryRecords is the smallest workable in-memory budget: the merge
// phase needs at least one record of input window per run plus one of
// output at the minimum fan-in of two.
const MinMemoryRecords = 6

// DefaultFanIn is the widest fan-in the pass plan picks. A 64-way window merge costs about as much per
// element as two 8-way ones and a 32-way one clearly less
// (BenchmarkKWayKernel in internal/kway), while every pass saved is one
// read and one write of the whole dataset.
const DefaultFanIn = 64

// Config parameterizes an external sort.
type Config struct {
	// MemoryRecords is M, the in-memory workspace in records: the run
	// formation buffer (M records sorted at a time) and the merge phase's
	// per-run input windows plus output buffer. The engine's own peak
	// allocation is reported in Stats.PeakBufferRecords and never exceeds
	// M. Run formation's psort call allocates a destination of the
	// chunk's size besides and copies the sorted result back, so that
	// phase holds up to 2M records.
	MemoryRecords int
	// Workers is the parallelism of the in-memory phases (run sorting
	// and in-window merging). Default 1.
	Workers int
	// Progress, when non-nil, is called as the sort advances: done
	// counts records processed so far across all phases (monotonically
	// non-decreasing), total is the precomputed whole-sort record count,
	// and phase names the current phase ("run_formation" or "merge").
	// Called from the sorting goroutine; keep it cheap.
	Progress func(done, total int64, phase string)
}

// Stats reports what an external sort did.
type Stats struct {
	// Runs is the number of initial sorted runs formed.
	Runs int `json:"runs"`
	// MergePasses is the number of merge passes over the data
	// (ceil(log_FanIn(Runs))).
	MergePasses int `json:"merge_passes"`
	// FanIn is the merge-tree fan-in the pass plan chose (see Sort).
	FanIn int `json:"fan_in"`
	// BlockReads is the total block reads charged against the device and
	// the scratch device by this sort.
	BlockReads uint64 `json:"block_reads"`
	// BlockWrites is the matching block write count.
	BlockWrites uint64 `json:"block_writes"`
	// PeakBufferRecords is the largest number of in-memory record slots
	// the engine had allocated at any point — the measured side of the
	// MemoryRecords contract (always <= MemoryRecords). It does not count
	// the in-memory sort's scratch during run formation.
	PeakBufferRecords int `json:"peak_buffer_records"`
	// KWayImbalanceMax is the worst per-worker window imbalance ratio of
	// any co-rank in-window merge this sort ran (the k-way Theorem 5
	// check; ~1.0 by construction). Zero when no co-rank round ran —
	// the sequential merge reports no per-worker loads.
	KWayImbalanceMax float64 `json:"kway_imbalance_max,omitempty"`
}

// sorter carries one Sort invocation's state.
type sorter[T cmp.Ordered] struct {
	cfg     Config
	workers int
	fanIn   int
	window  int // per-run merge window, MemoryRecords/(3*fanIn)
	done    int64
	total   int64
	peak    int     // PeakBufferRecords accumulator
	kwayImb float64 // KWayImbalanceMax accumulator
}

// note records a buffer allocation high-water mark of n records.
func (s *sorter[T]) note(n int) {
	if n > s.peak {
		s.peak = n
	}
}

// advance moves the progress counter by n records in phase.
func (s *sorter[T]) advance(n int, phase string) {
	s.done += int64(n)
	if s.cfg.Progress != nil {
		s.cfg.Progress(s.done, s.total, phase)
	}
}

// Sort sorts the first n records of dev in place (externally) and returns
// the I/O statistics. It is the textbook external merge sort with the
// library as its engine: run formation uses the parallel merge sort of
// §III on M records at a time; merging streams groups of FanIn runs
// through windowed k-way merges (internal/kway) — the paper's Algorithm 2
// with block I/O as the next memory level, generalized from two runs to
// F. Each merge round cuts every run's buffered window at the same value
// bound (the smallest last-buffered record across unfinished runs), so
// the emitted prefixes are exactly the records whose final position is
// already decidable — index-space partitioning of the runs in the spirit
// of multi-way co-ranking. Total traffic is 2·N/B·(1 + ceil(log_F(N/M)))
// block transfers plus rounding.
//
// The fan-in F is planned from MemoryRecords and the device's block
// size (planFanIn): the fewest
// passes whose per-run window M/(3F) still holds one device block, then
// the smallest F that reaches every run in that many passes. Run
// formation writes to scratch when the pass count is odd, so the last
// pass lands on dev and no copy-back is needed.
//
// scratch is the ping-pong partner device; it must hold at least n
// records, and may be nil only when n <= cfg.MemoryRecords (a single
// in-memory run needs no merge phase). ctx cancellation is observed at
// run and merge-window boundaries: the sort returns ctx's error (wrapped)
// and the devices are left in a valid but unspecified intermediate state.
// Configuration and device errors are returned, never panicked.
func Sort[T cmp.Ordered](ctx context.Context, dev, scratch Device[T], n int, cfg Config) (Stats, error) {
	var stats Stats
	if dev == nil {
		return stats, fmt.Errorf("extsort: nil device")
	}
	if n < 0 || n > dev.Capacity() {
		return stats, fmt.Errorf("extsort: sort range %d outside device of %d records", n, dev.Capacity())
	}
	m := cfg.MemoryRecords
	if m < MinMemoryRecords {
		return stats, fmt.Errorf("extsort: memory budget %d below minimum %d records", m, MinMemoryRecords)
	}
	s := &sorter[T]{cfg: cfg, workers: cfg.Workers}
	if s.workers < 1 {
		s.workers = 1
	}
	s.fanIn = planFanIn(n, m, dev.BlockRecords())
	s.window = m / (3 * s.fanIn)
	stats.FanIn = s.fanIn

	if n == 0 {
		return stats, nil
	}

	// Count the passes up front so progress has a fixed denominator:
	// formation touches n records and each pass touches n.
	passes := mergePasses(n, m, s.fanIn)
	s.total = int64(n) * int64(1+passes)
	if passes > 0 {
		if scratch == nil {
			return stats, fmt.Errorf("extsort: %d records exceed the %d-record memory budget and no scratch device was given", n, m)
		}
		if scratch.Capacity() < n {
			return stats, fmt.Errorf("extsort: scratch device holds %d records, need %d", scratch.Capacity(), n)
		}
	}

	devR0, devW0 := dev.Stats()
	var scrR0, scrW0 uint64
	if scratch != nil {
		scrR0, scrW0 = scratch.Stats()
	}

	// Phase 1: run formation — sort M records at a time and write them
	// where the first pass reads (src): scratch when an odd number of
	// passes follows, so the last one ends on dev.
	src, dst := dev, scratch
	if passes%2 == 1 {
		src, dst = scratch, dev
	}
	buf := make([]T, min(m, n))
	s.note(len(buf))
	for lo := 0; lo < n; lo += m {
		hi := min(lo+m, n)
		chunk := buf[:hi-lo]
		if err := dev.Read(lo, chunk); err != nil {
			return stats, err
		}
		if err := psort.SortCtx(ctx, chunk, s.workers); err != nil {
			return stats, fmt.Errorf("extsort: run formation: %w", err)
		}
		if err := src.Write(lo, chunk); err != nil {
			return stats, err
		}
		stats.Runs++
		s.advance(len(chunk), "run_formation")
	}
	buf = nil

	// Phase 2: F-way merge passes, ping-ponging between the devices.
	for width := m; width < n; width *= s.fanIn {
		groupSpan := width * s.fanIn
		for lo := 0; lo < n; lo += groupSpan {
			hi := min(lo+groupSpan, n)
			if lo+width >= hi {
				// Lone tail run: carry it over unchanged.
				if err := s.carry(ctx, src, dst, lo, hi); err != nil {
					return stats, err
				}
				continue
			}
			var spans [][2]int
			for rlo := lo; rlo < hi; rlo += width {
				spans = append(spans, [2]int{rlo, min(rlo+width, hi)})
			}
			if err := s.mergeGroup(ctx, src, dst, spans); err != nil {
				return stats, err
			}
		}
		src, dst = dst, src
		stats.MergePasses++
	}

	devR1, devW1 := dev.Stats()
	stats.BlockReads = devR1 - devR0
	stats.BlockWrites = devW1 - devW0
	if scratch != nil {
		scrR1, scrW1 := scratch.Stats()
		stats.BlockReads += scrR1 - scrR0
		stats.BlockWrites += scrW1 - scrW0
	}
	stats.PeakBufferRecords = s.peak
	stats.KWayImbalanceMax = s.kwayImb
	return stats, nil
}

// planFanIn plans the merge tree for n records under a budget of m
// records on a device of block-record blocks: the fewest passes whose
// per-run window m/(3F) still holds one block (F at most DefaultFanIn,
// at least 2), then the smallest F that reaches every run in that many
// passes. Fewer passes save whole reads and writes of the data; the
// smaller F keeps windows wide and the k-way kernel cheap. A block
// size below one counts as one.
func planFanIn(n, m, block int) int {
	widest := max(2, min(DefaultFanIn, m/(3*max(1, block))))
	passes := mergePasses(n, m, widest)
	fanIn := 2
	for mergePasses(n, m, fanIn) > passes {
		fanIn++
	}
	return fanIn
}

// mergePasses is the number of fanIn-way merge passes that turn runs
// of m records into one run of n: ceil(log_fanIn(ceil(n/m))).
func mergePasses(n, m, fanIn int) int {
	passes := 0
	for width := m; width < n; width *= fanIn {
		passes++
	}
	return passes
}

// carry streams the lone tail run src[lo:hi) to dst unchanged, in
// budget-sized chunks.
func (s *sorter[T]) carry(ctx context.Context, src, dst Device[T], lo, hi int) error {
	chunk := make([]T, min(s.cfg.MemoryRecords, hi-lo))
	s.note(len(chunk))
	for ; lo < hi; lo += len(chunk) {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("extsort: merge canceled: %w", err)
		}
		c := chunk[:min(len(chunk), hi-lo)]
		if err := src.Read(lo, c); err != nil {
			return err
		}
		if err := dst.Write(lo, c); err != nil {
			return err
		}
		s.advance(len(c), "merge")
	}
	return nil
}

// runCursor is one input run of a merge group: the half-open device range
// still unread plus the buffered window.
type runCursor[T any] struct {
	next, end int // next unread device record, one past the run's last
	buf       []T // sorted window, cap = s.window
}

// mergeGroup merges the runs at spans (consecutive, each sorted) from src
// into dst at the same offsets — one node of the merge tree. Each round
// refills every run's window, finds the value bound up to which the merge
// is decidable (the smallest last-buffered record among runs with data
// still on the device), cuts every window at that bound, and k-way merges
// the cut prefixes (internal/kway) straight into the output buffer.
// Memory: fanIn windows plus the output buffer, within MemoryRecords by
// construction of s.window.
func (s *sorter[T]) mergeGroup(ctx context.Context, src, dst Device[T], spans [][2]int) error {
	w := s.window
	cursors := make([]*runCursor[T], len(spans))
	for i, sp := range spans {
		cursors[i] = &runCursor[T]{next: sp[0], end: sp[1], buf: make([]T, 0, w)}
	}
	outLo, outHi := spans[0][0], spans[len(spans)-1][1]
	outBuf := make([]T, 0, len(spans)*w)
	// Peak: input windows + output. The in-window k-way merge writes
	// straight into outBuf, so the last third of M stays unallocated.
	s.note(len(spans)*w + cap(outBuf))

	outPos := outLo
	prefixes := make([][]T, 0, len(cursors))
	for outPos < outHi {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("extsort: merge canceled: %w", err)
		}
		// Refill every window ("fetch the next elements ... in numbers
		// equal to the respective numbers of consumed elements").
		for _, c := range cursors {
			if want := min(w-len(c.buf), c.end-c.next); want > 0 {
				c.buf = c.buf[:len(c.buf)+want]
				if err := src.Read(c.next, c.buf[len(c.buf)-want:]); err != nil {
					return err
				}
				c.next += want
			}
		}
		// The decidable bound: any record still on the device belongs to
		// some run whose last buffered record is <= it, so everything
		// buffered at or below the smallest such last record can be
		// emitted now without ever being overtaken.
		haveMore := false
		var limit T
		for _, c := range cursors {
			if c.next < c.end {
				last := c.buf[len(c.buf)-1]
				if !haveMore || last < limit {
					limit, haveMore = last, true
				}
			}
		}
		prefixes = prefixes[:0]
		cut := make([]int, len(cursors))
		steps := 0
		for i, c := range cursors {
			p := len(c.buf)
			if haveMore {
				p = sort.Search(len(c.buf), func(j int) bool { return c.buf[j] > limit })
			}
			cut[i] = p
			steps += p
			if p > 0 {
				prefixes = append(prefixes, c.buf[:p])
			}
		}
		// At least the bound-attaining run's whole window is emitted, so
		// every round makes progress.
		out := outBuf[:steps]
		_, st := kway.MergeIntoStats(out, prefixes, s.workers, kway.StrategyAuto)
		if st.Imbalance > s.kwayImb {
			s.kwayImb = st.Imbalance
		}
		if err := dst.Write(outPos, out); err != nil {
			return err
		}
		outPos += steps
		s.advance(steps, "merge")
		for i, c := range cursors {
			c.buf = c.buf[:copy(c.buf, c.buf[cut[i]:])]
		}
	}
	return nil
}

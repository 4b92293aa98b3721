package jobs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mergepath/internal/fault"
)

// encode packs values as the wire format: 8-byte little-endian records.
func encode(vals []int64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
	}
	return buf
}

func decode(b []byte) []int64 {
	vals := make([]int64, len(b)/8)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return vals
}

func randomVals(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63()
	}
	return vals
}

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.GCInterval == 0 {
		cfg.GCInterval = time.Hour // tests drive Sweep by hand
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// waitTerminal polls until the job leaves the live states, asserting the
// published progress never decreases along the way.
func waitTerminal(t *testing.T, m *Manager, id string) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	last := -1.0
	for {
		v, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished while live", id)
		}
		if v.Progress < last {
			t.Fatalf("progress went backwards: %g -> %g", last, v.Progress)
		}
		last = v.Progress
		if v.State.terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDatasetLifecycle(t *testing.T) {
	m := newManager(t, Config{MaxDatasetBytes: 1 << 20})
	vals := randomVals(100, 1)
	ds, err := m.CreateDataset(bytes.NewReader(encode(vals)))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Records != 100 || ds.Bytes != 800 {
		t.Fatalf("dataset geometry: %+v", ds)
	}
	if got, ok := m.GetDataset(ds.ID); !ok || got.ID != ds.ID {
		t.Fatal("GetDataset")
	}
	if _, err := m.CreateDataset(bytes.NewReader(make([]byte, 13))); !errors.Is(err, ErrBadLength) {
		t.Fatalf("ragged upload: %v", err)
	}
	if _, err := m.CreateDataset(bytes.NewReader(make([]byte, 1<<21))); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized upload: %v", err)
	}
	if err := m.DeleteDataset(ds.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteDataset(ds.ID); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("double delete: %v", err)
	}
	// Rejected uploads must not leave files behind.
	ents, err := os.ReadDir(m.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not empty after deletes: %d entries", len(ents))
	}
}

func TestSortJobEndToEnd(t *testing.T) {
	var enq, done atomic.Int64
	var drained atomic.Int64
	m := newManager(t, Config{
		MemoryRecords: 64,
		Workers:       2,
		Hooks: Hooks{
			Enqueue: func(n int) { enq.Add(int64(n)) },
			Done:    func(n int) { done.Add(int64(n)) },
			Drained: func(n int, _ time.Duration) { drained.Add(int64(n)) },
		},
	})
	const n = 5000 // ~78x the memory budget
	vals := randomVals(n, 2)
	ds, err := m.CreateDataset(bytes.NewReader(encode(vals)))
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit("sortfile", ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != Pending || v.Progress != 0 {
		t.Fatalf("fresh job: %+v", v)
	}
	v = waitTerminal(t, m, v.ID)
	if v.State != Done {
		t.Fatalf("state %s, error %q", v.State, v.Error)
	}
	if v.Progress != 1 {
		t.Fatalf("done progress %g", v.Progress)
	}
	if v.Stats == nil || v.Stats.Runs == 0 || v.Stats.PeakBufferRecords > 64 {
		t.Fatalf("stats: %+v", v.Stats)
	}
	names := map[string]bool{}
	for _, s := range v.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"queue_wait", "copy_in", "run_formation", "merge", "total"} {
		if !names[want] {
			t.Fatalf("missing span %q in %+v", want, v.Spans)
		}
	}
	rc, size, err := m.OpenResult(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != size || size != 8*n {
		t.Fatalf("result size %d (reported %d)", len(raw), size)
	}
	want := slices.Clone(vals)
	slices.Sort(want)
	if !slices.Equal(decode(raw), want) {
		t.Fatal("result is not the sorted dataset")
	}
	if enq.Load() != int64(n) || done.Load() != int64(n) || drained.Load() != int64(n) {
		t.Fatalf("hook accounting: enq=%d done=%d drained=%d", enq.Load(), done.Load(), drained.Load())
	}
	s := m.Snapshot()
	if s.Submitted != 1 || s.Completed != 1 || s.Running != 0 || s.Pending != 0 {
		t.Fatalf("snapshot: %+v", s)
	}
	if s.BlockReads == 0 || s.BlockWrites == 0 {
		t.Fatalf("no I/O accounted: %+v", s)
	}
}

func TestSubmitErrors(t *testing.T) {
	inj, err := fault.Parse("job:latency=300ms@1", 1)
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{MemoryRecords: 64, MaxConcurrent: 1, MaxQueued: 1, Fault: inj})
	if _, err := m.Submit("sortfile", "ds-nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}
	ds, err := m.CreateDataset(bytes.NewReader(encode(randomVals(64, 3))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("shred", ds.ID); !errors.Is(err, ErrBadType) {
		t.Fatalf("bad type: %v", err)
	}
	// Slot 1 runs (sleeping in the injector), slot 2 queues, slot 3 sheds.
	j1, err := m.Submit("sortfile", ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	for { // wait until the worker owns j1 so j2 really queues
		if v, _ := m.Get(j1.ID); v.State == Running {
			break
		}
		time.Sleep(time.Millisecond)
	}
	j2, err := m.Submit("sortfile", ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("sortfile", ds.ID); !errors.Is(err, ErrBusy) {
		t.Fatalf("full queue: %v", err)
	}
	if m.Snapshot().ShedBusy != 1 {
		t.Fatal("shed not counted")
	}
	inj.SetEnabled(false)
	waitTerminal(t, m, j1.ID)
	waitTerminal(t, m, j2.ID)
}

func TestCancel(t *testing.T) {
	inj, err := fault.Parse("sortfile:latency=300ms@1", 4)
	if err != nil {
		t.Fatal(err)
	}
	var enq, done atomic.Int64
	m := newManager(t, Config{
		MemoryRecords: 64, MaxConcurrent: 1, MaxQueued: 4, Fault: inj,
		Hooks: Hooks{
			Enqueue: func(n int) { enq.Add(int64(n)) },
			Done:    func(n int) { done.Add(int64(n)) },
		},
	})
	ds, err := m.CreateDataset(bytes.NewReader(encode(randomVals(600, 5))))
	if err != nil {
		t.Fatal(err)
	}
	running, _ := m.Submit("sortfile", ds.ID)
	queued, _ := m.Submit("sortfile", ds.ID)

	// Canceling the queued job finalizes it immediately, before a worker
	// ever touches it.
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get(queued.ID); v.State != Canceled {
		t.Fatalf("queued job state %s", v.State)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel canceled should be a no-op: %v", err)
	}

	// Cancel the running job mid-sort; it must land in Canceled with its
	// result and scratch files removed.
	if err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, m, running.ID)
	if v.State != Canceled {
		t.Fatalf("running job state %s, error %q", v.State, v.Error)
	}
	if _, _, err := m.OpenResult(running.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("result of canceled job: %v", err)
	}
	if err := m.Cancel(running.ID); err != nil {
		t.Fatalf("cancel after cancel: %v", err)
	}
	if err := m.Cancel("job-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v", err)
	}
	// Only the dataset file may remain in the spill dir.
	ents, err := os.ReadDir(m.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "ds-") {
			t.Fatalf("leaked spill file %q", e.Name())
		}
	}
	if enq.Load() != done.Load() {
		t.Fatalf("hook accounting unbalanced: enq=%d done=%d", enq.Load(), done.Load())
	}
	// Canceling a done job is rejected.
	inj.SetEnabled(false)
	fin, _ := m.Submit("sortfile", ds.ID)
	if v := waitTerminal(t, m, fin.ID); v.State != Done {
		t.Fatalf("state %s", v.State)
	}
	if err := m.Cancel(fin.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("cancel done job: %v", err)
	}
}

func TestTTLGarbageCollection(t *testing.T) {
	m := newManager(t, Config{MemoryRecords: 64, TTL: time.Minute})
	ds, err := m.CreateDataset(bytes.NewReader(encode(randomVals(200, 6))))
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit("sortfile", ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v = waitTerminal(t, m, v.ID); v.State != Done {
		t.Fatalf("state %s", v.State)
	}
	// Within TTL nothing moves.
	if n := m.Sweep(time.Now()); n != 0 {
		t.Fatalf("premature sweep moved %d", n)
	}
	// Past TTL: the job expires (files gone, record kept), the dataset
	// is deleted outright.
	if n := m.Sweep(time.Now().Add(2 * time.Minute)); n != 2 {
		t.Fatalf("first sweep moved %d, want 2", n)
	}
	got, ok := m.Get(v.ID)
	if !ok || got.State != Expired {
		t.Fatalf("after expiry: ok=%v state=%s", ok, got.State)
	}
	if got.Progress != 1 {
		t.Fatalf("expired done job progress %g", got.Progress)
	}
	if _, _, err := m.OpenResult(v.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("expired result: %v", err)
	}
	if _, ok := m.GetDataset(ds.ID); ok {
		t.Fatal("dataset survived expiry")
	}
	ents, err := os.ReadDir(m.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("files survive expiry: %v", ents)
	}
	// A second TTL later the record itself is dropped.
	if n := m.Sweep(time.Now().Add(4 * time.Minute)); n != 1 {
		t.Fatalf("second sweep moved %d, want 1", n)
	}
	if _, ok := m.Get(v.ID); ok {
		t.Fatal("expired record survived the second sweep")
	}
	s := m.Snapshot()
	if s.Expired != 1 || s.GCSweeps != 3 || s.Tracked != 0 || s.Datasets != 0 {
		t.Fatalf("snapshot: %+v", s)
	}
}

// TestJobsSoak hammers one manager with concurrent submits, cancels and
// GC sweeps under fault injection (errors, panics, latency), then closes
// it and asserts nothing leaked: hook accounting balances, every job is
// terminal, no goroutines or spill files survive. Run with -race via
// `make jobs-soak`; MERGEPATH_JOBS_SOAK=1 multiplies the iteration count.
func TestJobsSoak(t *testing.T) {
	iters := 40
	if os.Getenv("MERGEPATH_JOBS_SOAK") != "" {
		iters = 600
	}
	baseline := runtime.NumGoroutine()

	inj, err := fault.Parse("job:error=0.2,latency=1ms@0.3;sortfile:panic=0.15,error=0.1", 99)
	if err != nil {
		t.Fatal(err)
	}
	var enq, done atomic.Int64
	m, err := New(Config{
		MemoryRecords: 64,
		MaxConcurrent: 3,
		MaxQueued:     8,
		TTL:           50 * time.Millisecond,
		GCInterval:    10 * time.Millisecond,
		Fault:         inj,
		Hooks: Hooks{
			Enqueue: func(n int) { enq.Add(int64(n)) },
			Done:    func(n int) { done.Add(int64(n)) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// A few shared datasets of varying shapes.
	var datasets []string
	for i := 0; i < 3; i++ {
		ds, err := m.CreateDataset(bytes.NewReader(encode(randomVals(300+200*i, int64(i)))))
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, ds.ID)
	}

	var ids sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				v, err := m.Submit("sortfile", datasets[rng.Intn(len(datasets))])
				if err != nil {
					// ErrUnknownDataset can happen if the aggressive TTL
					// swept an idle dataset out from under us.
					if !errors.Is(err, ErrBusy) && !errors.Is(err, ErrClosed) &&
						!errors.Is(err, ErrUnknownDataset) {
						t.Errorf("submit: %v", err)
					}
					time.Sleep(time.Millisecond)
					continue
				}
				ids.Store(v.ID, true)
				if rng.Intn(3) == 0 {
					time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
					if err := m.Cancel(v.ID); err != nil &&
						!errors.Is(err, ErrTerminal) && !errors.Is(err, ErrUnknownJob) {
						t.Errorf("cancel: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Let in-flight jobs settle, then verify every submitted job reached
	// a terminal state (or was already GC-deleted) and accounting closed.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if enq.Load() == done.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never balanced: enq=%d done=%d", enq.Load(), done.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ids.Range(func(k, _ any) bool {
		if v, ok := m.Get(k.(string)); ok && !v.State.terminal() {
			t.Errorf("job %s still %s after drain", v.ID, v.State)
		}
		return true
	})
	s := m.Snapshot()
	if s.Submitted == 0 || s.Completed == 0 {
		t.Fatalf("soak did no work: %+v", s)
	}
	if s.Failed == 0 {
		t.Logf("note: no injected failures surfaced (seed too kind): %+v", s)
	}
	dir := m.Dir()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("Close should remove the owned spill dir")
	}
	// Goroutines must drain back to (about) the baseline.
	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestManagerClosed(t *testing.T) {
	m, err := New(Config{MemoryRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateDataset(bytes.NewReader(nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	if _, err := m.Submit("sortfile", "ds-x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSortJobPlansFanIn runs a 32-run job through the manager, the path
// the daemon serves, with no fan-in configured: the engine must plan a
// single 32-way pass (every run's window M/96 still holds a block) and
// the job must report it.
func TestSortJobPlansFanIn(t *testing.T) {
	const memory, runs = 3072, 32
	m := newManager(t, Config{MemoryRecords: memory, BlockRecords: memory / 96, Workers: 2})
	vals := randomVals(runs*memory, 3)
	ds, err := m.CreateDataset(bytes.NewReader(encode(vals)))
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit("sortfile", ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, m, v.ID)
	if v.State != Done {
		t.Fatalf("state %s, error %q", v.State, v.Error)
	}
	if st := v.Stats; st.Runs != runs || st.MergePasses != 1 || st.FanIn != runs || st.PeakBufferRecords > memory {
		t.Fatalf("stats %+v: want %d runs merged in one %d-way pass within %d records", *st, runs, runs, memory)
	}
	for _, s := range v.Spans {
		if s.Name != "queue_wait" && s.Name != "copy_in" && s.Name != "run_formation" && s.Name != "merge" && s.Name != "total" {
			t.Fatalf("unexpected span %q", s.Name)
		}
	}
	rc, _, err := m.OpenResult(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(vals)
	slices.Sort(want)
	if !slices.Equal(decode(raw), want) {
		t.Fatal("result is not the sorted dataset")
	}
}

// Package jobs is the asynchronous job subsystem behind the dataset API:
// clients upload datasets too large for a request/response cycle, submit
// long-running jobs against them (today: "sortfile", an external sort via
// internal/extsort under a hard memory budget), poll for progress, and
// stream the result when done. The manager bounds concurrent jobs, spills
// everything to files under one directory, garbage-collects expired job
// state and temp files on a TTL, and reports every lifecycle transition
// through hooks so the server's overload controller sees big sorts as
// backlog — the node browns out gracefully instead of OOMing.
//
// Job state machine:
//
//	pending -> running -> done | failed | canceled
//	pending -> canceled                      (canceled before starting)
//	done | failed | canceled -> expired      (TTL; files removed)
//	expired -> (record deleted)              (second TTL)
package jobs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mergepath/internal/extsort"
	"mergepath/internal/fault"
)

// Lifecycle and admission errors, mapped to HTTP statuses by the server.
var (
	// ErrUnknownJob means no job with that ID exists (404).
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrUnknownDataset means no dataset with that ID exists (404).
	ErrUnknownDataset = errors.New("jobs: unknown dataset")
	// ErrBusy means the bounded job queue is full — the service sheds
	// the submission (503) instead of queueing unboundedly.
	ErrBusy = errors.New("jobs: job queue full")
	// ErrBadType rejects job types the manager does not implement (400).
	ErrBadType = errors.New(`jobs: unknown job type (want "sortfile")`)
	// ErrNotDone means the job has no streamable result in its current
	// state (409): it is still running, or it failed, was canceled, or
	// its result already expired.
	ErrNotDone = errors.New("jobs: result not available in this state")
	// ErrTerminal rejects canceling a job that already finished (409).
	ErrTerminal = errors.New("jobs: job already in a terminal state")
	// ErrClosed means the manager is shut down and accepts no work.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrTooLarge rejects dataset uploads over the configured byte limit
	// (413).
	ErrTooLarge = errors.New("jobs: dataset exceeds the configured size limit")
	// ErrBadLength rejects dataset uploads whose byte length is not a
	// whole number of 8-byte records (400).
	ErrBadLength = errors.New("jobs: dataset length is not a whole number of 8-byte records")
)

// State is a job's position in the lifecycle state machine.
type State string

// The job states. Pending and Running are live; Done, Failed, Canceled
// and Expired are terminal (Expired additionally means the TTL sweeper
// removed the job's files).
const (
	Pending  State = "pending"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
	Expired  State = "expired"
)

// terminal reports whether s is past Running.
func (s State) terminal() bool { return s != Pending && s != Running }

// Hooks lets the owner observe job lifecycle transitions — the server
// wires these to the overload controller so queued and running job
// records count as element backlog (Enqueue/Done) and completed sorts
// feed the drain-rate EWMA (Drained). All hooks are optional.
type Hooks struct {
	// Enqueue fires when a job is admitted, with its record count.
	Enqueue func(records int)
	// Done fires exactly once when a job reaches a terminal state, with
	// the same record count Enqueue saw.
	Done func(records int)
	// Drained fires when a job completes successfully: records sorted
	// and the execution wall time (copy-in through final write).
	Drained func(records int, took time.Duration)
}

// Config shapes a Manager. Zero values select the documented defaults.
type Config struct {
	// Dir is the spill directory for datasets, results and scratch
	// files. Empty means a fresh os.MkdirTemp directory owned (and
	// removed on Close) by the manager.
	Dir string
	// MemoryRecords is the per-job in-memory budget in records — the
	// extsort M. Default 1<<20 (8 MiB of int64s).
	MemoryRecords int
	// Workers is the in-memory parallelism of each job's sort phases.
	// Default GOMAXPROCS.
	Workers int
	// MaxConcurrent bounds jobs executing at once. Default 1: sorts are
	// I/O- and memory-hungry, and the merge/sort request path shares the
	// machine.
	MaxConcurrent int
	// MaxQueued bounds jobs waiting to run; a full queue sheds
	// submissions with ErrBusy. Default 8.
	MaxQueued int
	// TTL is how long finished jobs keep their result files and expired
	// records linger, and how long unreferenced datasets survive.
	// Default 10m.
	TTL time.Duration
	// GCInterval is how often the TTL sweeper runs. Default 30s.
	GCInterval time.Duration
	// MaxDatasetBytes caps one dataset upload. Default 2 GiB.
	MaxDatasetBytes int64
	// BlockRecords is the file-device block size in records. Default
	// extsort.DefaultFileBlockRecords.
	BlockRecords int
	// Fault, when non-nil, injects errors/panics/latency into job
	// execution keyed by op ("job" at start, "sortfile" before the
	// sort, and the disk.* ops on every file device) — chaos testing
	// for the failure paths. Nil in production.
	Fault *fault.Injector
	// Hooks observe lifecycle transitions (overload wiring).
	Hooks Hooks
	// DisableJournal turns the write-ahead manifest journal off even
	// when Dir is set (-journal=false). Managers on an owned temp dir
	// (Dir == "") never journal — there is nothing to recover into.
	DisableJournal bool
	// Fsync is the fsync policy (docs/DURABILITY.md). Zero value is
	// FsyncState: fsync the journal at state boundaries and data files
	// at seal points.
	Fsync FsyncPolicy
}

func (c Config) withDefaults() Config {
	if c.MemoryRecords <= 0 {
		c.MemoryRecords = 1 << 20
	}
	if c.MemoryRecords < extsort.MinMemoryRecords {
		c.MemoryRecords = extsort.MinMemoryRecords
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 8
	}
	if c.TTL <= 0 {
		c.TTL = 10 * time.Minute
	}
	if c.GCInterval <= 0 {
		c.GCInterval = 30 * time.Second
	}
	if c.MaxDatasetBytes <= 0 {
		c.MaxDatasetBytes = 2 << 30
	}
	if c.BlockRecords <= 0 {
		c.BlockRecords = extsort.DefaultFileBlockRecords
	}
	if c.Fsync == "" {
		c.Fsync = FsyncState
	}
	return c
}

// Span is one timed phase of a job's execution, reported in its View —
// the job-level analogue of the request trace: queue_wait, copy_in,
// run_formation, merge, total. Start is the offset from
// submission.
type Span struct {
	// Name is the phase name.
	Name string `json:"name"`
	// StartMS is the phase's start offset from job submission, in
	// milliseconds.
	StartMS float64 `json:"start_ms"`
	// DurMS is the phase duration in milliseconds.
	DurMS float64 `json:"dur_ms"`
}

// Dataset describes one uploaded dataset.
type Dataset struct {
	// ID addresses the dataset in job submissions and the HTTP API.
	ID string `json:"id"`
	// Records is the dataset length in 8-byte records.
	Records int `json:"records"`
	// Bytes is the dataset size on disk.
	Bytes int64 `json:"bytes"`
	// Created is the upload completion time.
	Created time.Time `json:"created"`
}

// dataset is the manager's internal record: the public view plus the
// backing path, the TTL clock, and the reference count that makes
// deletion safe against running jobs (guarded by Manager.mu).
type dataset struct {
	Dataset
	path     string
	lastUsed time.Time
	refs     int  // live jobs reading this dataset
	deleting bool // DeleteDataset arrived while refs > 0; remove at last release
}

// View is a job's client-visible state — the GET /v1/jobs/{id} document.
type View struct {
	// ID addresses the job.
	ID string `json:"id"`
	// Type is the job type ("sortfile").
	Type string `json:"type"`
	// Dataset is the input dataset's ID.
	Dataset string `json:"dataset"`
	// Records is the input size in records.
	Records int `json:"records"`
	// State is the lifecycle state: pending, running, done, failed,
	// canceled or expired.
	State State `json:"state"`
	// Error carries the failure message for failed jobs.
	Error string `json:"error,omitempty"`
	// Progress is the fraction of the job's total record traffic already
	// processed, in [0,1], monotonically non-decreasing across polls.
	Progress float64 `json:"progress"`
	// Phase names the currently executing phase for running jobs.
	Phase string `json:"phase,omitempty"`
	// Created is the submission time.
	Created time.Time `json:"created"`
	// Started is when execution began (zero while pending).
	Started time.Time `json:"started,omitempty"`
	// Finished is when the job reached a terminal state (zero before).
	Finished time.Time `json:"finished,omitempty"`
	// Spans are the job's per-phase timings, populated as phases finish.
	Spans []Span `json:"spans,omitempty"`
	// Stats is the external-sort I/O accounting of a finished sort.
	Stats *extsort.Stats `json:"stats,omitempty"`
	// ResultBytes is the streamable result size for done jobs.
	ResultBytes int64 `json:"result_bytes,omitempty"`
}

// job is the manager's internal record.
type job struct {
	id        string
	typ       string
	datasetID string
	dsPath    string
	records   int
	created   time.Time
	ds        *dataset // refcounted input; nil for recovered (terminal) jobs

	cancel context.CancelFunc
	ctx    context.Context

	// progress is atomic: the runner publishes, pollers read without the
	// manager lock. Stored as float64 bits, monotonically non-decreasing.
	progress atomic.Uint64
	phase    atomic.Pointer[string]

	// Remaining fields are guarded by Manager.mu.
	state       State
	err         string
	started     time.Time
	finished    time.Time
	expired     time.Time // when the TTL sweep removed the files
	spans       []Span
	stats       *extsort.Stats
	resultPath  string
	resultBytes int64
	resultRefs  int  // open result streams; TTL expiry defers while > 0
	accounted   bool // Hooks.Done fired
}

// bumpProgress raises the job's published progress to f (never lowers).
func (j *job) bumpProgress(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	for {
		old := j.progress.Load()
		if mathFloat(old) >= f {
			return
		}
		if j.progress.CompareAndSwap(old, mathBits(f)) {
			return
		}
	}
}

// Manager owns the dataset store, the bounded job queue and workers, and
// the TTL garbage collector. All methods are safe for concurrent use.
type Manager struct {
	cfg    Config
	dir    string
	ownDir bool // we created dir and remove it on Close

	mu       sync.Mutex
	closed   bool
	datasets map[string]*dataset
	jobs     map[string]*job
	pending  int
	running  int

	queue  chan *job
	wg     sync.WaitGroup
	stopGC chan struct{}
	gcDone chan struct{}

	jnl *journal // nil when journaling is disabled

	submitted    atomic.Uint64
	completed    atomic.Uint64
	failed       atomic.Uint64
	canceledN    atomic.Uint64
	expiredN     atomic.Uint64
	shedBusy     atomic.Uint64
	gcSweeps     atomic.Uint64
	filesRemoved atomic.Uint64
	blockReads   atomic.Uint64
	blockWrites  atomic.Uint64
	resultAborts atomic.Uint64

	// Durability counters (Snapshot.Durability).
	jAppends       atomic.Uint64
	jReplayed      atomic.Uint64
	fsyncs         atomic.Uint64
	recDatasets    atomic.Uint64
	recResults     atomic.Uint64
	recFailed      atomic.Uint64
	orphansRemoved atomic.Uint64
	corruption     atomic.Uint64
}

// NoteCorruption records one detected integrity failure (checksum
// mismatch, truncated sealed file). Fed by the verified readers and the
// recovery pass.
func (m *Manager) NoteCorruption() { m.corruption.Add(1) }

// NoteResultAbort records one result stream that died mid-body — the
// client vanished or the spill file failed under the copy. The transfer
// happens in the HTTP layer, so the counter is fed from there; it lives
// here so it reaches /metrics, /healthz and /metrics/prom through the
// one jobs Snapshot like every other jobs number.
func (m *Manager) NoteResultAbort() { m.resultAborts.Add(1) }

// New creates a Manager: spill directory ready, workers started, GC
// ticking. Call Close to stop it.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	dir := cfg.Dir
	ownDir := false
	if dir == "" {
		d, err := os.MkdirTemp("", "mergepath-jobs-")
		if err != nil {
			return nil, fmt.Errorf("jobs: spill dir: %w", err)
		}
		dir, ownDir = d, true
	} else if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("jobs: spill dir: %w", err)
	}
	m := &Manager{
		cfg:      cfg,
		dir:      dir,
		ownDir:   ownDir,
		datasets: make(map[string]*dataset),
		jobs:     make(map[string]*job),
		queue:    make(chan *job, cfg.MaxQueued),
		stopGC:   make(chan struct{}),
		gcDone:   make(chan struct{}),
	}
	// Journaling requires a caller-owned spill directory: an ephemeral
	// temp dir dies with the process, so there is no restart to recover.
	if !ownDir && !cfg.DisableJournal {
		// Recover BEFORE opening the append side: compaction replaces the
		// journal file, and an open O_APPEND handle would keep writing to
		// the replaced inode.
		if err := m.recoverState(); err != nil {
			return nil, err
		}
		jnl, err := openJournal(dir, cfg.Fsync, &m.jAppends, &m.fsyncs)
		if err != nil {
			return nil, err
		}
		m.jnl = jnl
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	go m.gcLoop()
	return m, nil
}

// Dir returns the spill directory path.
func (m *Manager) Dir() string { return m.dir }

// MemoryRecords returns the effective per-job memory budget in records.
func (m *Manager) MemoryRecords() int { return m.cfg.MemoryRecords }

// CreateDataset streams r to a spill file, seals it (fsync per policy,
// sidecar checksums, journal record) and registers the dataset. The
// stream must be a whole number of 8-byte little-endian records and at
// most MaxDatasetBytes long.
func (m *Manager) CreateDataset(r io.Reader) (Dataset, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Dataset{}, ErrClosed
	}
	m.mu.Unlock()

	id := "ds-" + nextID()
	path := filepath.Join(m.dir, id+".data")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return Dataset{}, fmt.Errorf("jobs: create dataset: %w", err)
	}
	// Copy with a one-byte overshoot window so an over-limit stream is
	// detected without reading it to the end.
	n, err := io.Copy(f, io.LimitReader(r, m.cfg.MaxDatasetBytes+1))
	if err == nil && m.cfg.Fsync != FsyncNever {
		// Seal point: the bytes must be on the platter before the journal
		// record (and the 201 response) claims the dataset exists.
		if err = f.Sync(); err == nil {
			m.fsyncs.Add(1)
		}
	}
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	discard := func() { os.Remove(path); os.Remove(path + extsort.ChecksumSuffix) }
	switch {
	case err != nil:
		discard()
		return Dataset{}, fmt.Errorf("jobs: dataset upload: %w", err)
	case n > m.cfg.MaxDatasetBytes:
		discard()
		return Dataset{}, ErrTooLarge
	case n%extsort.RecordBytes != 0:
		discard()
		return Dataset{}, ErrBadLength
	}
	if _, err := extsort.WriteChecksumFile(path, m.cfg.BlockRecords, m.cfg.Fsync != FsyncNever); err != nil {
		discard()
		return Dataset{}, fmt.Errorf("jobs: seal dataset: %w", err)
	}
	if m.cfg.Fsync != FsyncNever {
		m.fsyncs.Add(1) // the sidecar fsync inside WriteChecksumFile
	}
	now := time.Now()
	ds := &dataset{
		Dataset:  Dataset{ID: id, Records: int(n / extsort.RecordBytes), Bytes: n, Created: now},
		path:     path,
		lastUsed: now,
	}
	if err := m.jnl.append(record{T: recDataset, ID: id, Records: ds.Records, Bytes: n}); err != nil {
		// Not durable -> not created: a dataset the journal cannot vouch
		// for would be garbage-collected at the next restart anyway.
		discard()
		return Dataset{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		discard()
		return Dataset{}, ErrClosed
	}
	m.datasets[id] = ds
	m.mu.Unlock()
	return ds.Dataset, nil
}

// GetDataset returns a dataset's public record.
func (m *Manager) GetDataset(id string) (Dataset, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ds, ok := m.datasets[id]
	if !ok {
		return Dataset{}, false
	}
	return ds.Dataset, true
}

// DeleteDataset removes a dataset with deferred-delete semantics: the
// record disappears immediately (subsequent submissions 404) but, when
// live jobs still hold the dataset, the file removal is deferred until
// the last job releases it — the delete never races a running sort's
// reads. Documented in docs/DURABILITY.md.
func (m *Manager) DeleteDataset(id string) error {
	m.mu.Lock()
	ds, ok := m.datasets[id]
	if ok {
		delete(m.datasets, id)
		if ds.refs > 0 {
			ds.deleting = true // last finalizeLocked removes the file
			ds = nil
		}
	}
	m.mu.Unlock()
	if !ok {
		return ErrUnknownDataset
	}
	m.jnl.append(record{T: recDatasetDel, ID: id})
	if ds != nil {
		m.removeFile(ds.path)
	}
	return nil
}

// Submit admits a job of the given type against a dataset, or sheds with
// ErrBusy when the bounded queue is full. The returned View is the 202
// body: state pending, progress 0.
func (m *Manager) Submit(typ, datasetID string) (View, error) {
	if typ != "sortfile" {
		return View{}, ErrBadType
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return View{}, ErrClosed
	}
	ds, ok := m.datasets[datasetID]
	if !ok {
		m.mu.Unlock()
		return View{}, ErrUnknownDataset
	}
	ds.lastUsed = time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        "job-" + nextID(),
		typ:       typ,
		datasetID: datasetID,
		dsPath:    ds.path,
		records:   ds.Records,
		created:   time.Now(),
		ds:        ds,
		ctx:       ctx,
		cancel:    cancel,
		state:     Pending,
	}
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		cancel()
		m.shedBusy.Add(1)
		return View{}, ErrBusy
	}
	m.jobs[j.id] = j
	m.pending++
	// The job holds its dataset until it reaches a terminal state: the
	// refcount is what makes DELETE /v1/datasets safe mid-sort.
	ds.refs++
	// Build the 202 view before unlocking: a worker may pick the job up
	// the moment the lock is released, and the caller must see it
	// pending.
	v := m.viewLocked(j)
	m.mu.Unlock()
	m.submitted.Add(1)
	m.jnl.append(record{T: recAccepted, ID: j.id, JobType: typ, Dataset: datasetID, Records: j.records})
	if h := m.cfg.Hooks.Enqueue; h != nil {
		h(j.records)
	}
	return v, nil
}

// Get returns a job's current view.
func (m *Manager) Get(id string) (View, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return View{}, false
	}
	return m.view(j), true
}

// Cancel requests cancellation: a pending job is finalized canceled
// immediately, a running job is interrupted at its next merge-window
// boundary. Canceling an already-canceled job is a no-op; canceling any
// other terminal job returns ErrTerminal.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrUnknownJob
	}
	switch j.state {
	case Canceled:
		m.mu.Unlock()
		return nil
	case Pending:
		post := m.finalizeLocked(j, Canceled, nil)
		m.mu.Unlock()
		if post != nil {
			post()
		}
		j.cancel()
		return nil
	case Running:
		m.mu.Unlock()
		j.cancel()
		return nil
	default:
		m.mu.Unlock()
		return ErrTerminal
	}
}

// OpenResult opens a done job's sorted result for checksum-verified
// streaming and reports its size. The job's result is pinned against
// TTL expiry for the life of the stream (resultRefs), so a sweep racing
// a slow download can never unlink the file mid-copy. The caller must
// Close the reader. A corrupted result surfaces as an error wrapping
// extsort.ErrCorrupt (and bumps corruption_detected_total), never as
// wrong bytes.
func (m *Manager) OpenResult(id string) (io.ReadCloser, int64, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, 0, ErrUnknownJob
	}
	if j.state != Done {
		m.mu.Unlock()
		return nil, 0, ErrNotDone
	}
	path, size := j.resultPath, j.resultBytes
	j.resultRefs++
	m.mu.Unlock()
	r, err := extsort.OpenVerifiedReader(path)
	if err != nil {
		m.releaseResult(j)
		if errors.Is(err, extsort.ErrCorrupt) {
			m.corruption.Add(1)
		}
		return nil, 0, fmt.Errorf("jobs: open result: %w", err)
	}
	r.SetFault(m.cfg.Fault)
	return &resultStream{m: m, j: j, r: r}, size, nil
}

// resultStream wraps a verified result reader, counting corruption
// verdicts and releasing the job's stream pin on Close.
type resultStream struct {
	m       *Manager
	j       *job
	r       *extsort.VerifiedReader
	counted bool
	closed  bool
}

// Read streams verified bytes; the first corruption verdict is counted.
func (s *resultStream) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err != nil && !s.counted && errors.Is(err, extsort.ErrCorrupt) {
		s.counted = true
		s.m.corruption.Add(1)
	}
	return n, err
}

// Close releases the stream's expiry pin and closes the file. Safe to
// call twice.
func (s *resultStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.m.releaseResult(s.j)
	return s.r.Close()
}

// releaseResult drops one result-stream pin.
func (m *Manager) releaseResult(j *job) {
	m.mu.Lock()
	j.resultRefs--
	m.mu.Unlock()
}

// view assembles a View from a job (takes the manager lock).
func (m *Manager) view(j *job) View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked(j)
}

// viewLocked is view for callers that hold m.mu.
func (m *Manager) viewLocked(j *job) View {
	v := View{
		ID:          j.id,
		Type:        j.typ,
		Dataset:     j.datasetID,
		Records:     j.records,
		State:       j.state,
		Error:       j.err,
		Created:     j.created,
		Started:     j.started,
		Finished:    j.finished,
		Spans:       append([]Span(nil), j.spans...),
		Stats:       j.stats,
		ResultBytes: j.resultBytes,
	}
	v.Progress = mathFloat(j.progress.Load())
	if v.State == Done || v.State == Expired {
		v.Progress = 1
	}
	if v.State == Running {
		if p := j.phase.Load(); p != nil {
			v.Phase = *p
		}
	}
	return v
}

// finalizeLocked moves a job to a terminal state, firing Hooks.Done
// exactly once and releasing the job's dataset reference. Callers hold
// m.mu and MUST run the returned closure (nil when the job was already
// terminal) after unlocking: it appends the terminal journal record and
// performs any dataset removal this release unblocked — file I/O and
// fsyncs that must not happen under the manager lock.
func (m *Manager) finalizeLocked(j *job, state State, err error) func() {
	if j.state.terminal() {
		return nil
	}
	switch j.state {
	case Pending:
		m.pending--
	case Running:
		m.running--
	}
	j.state = state
	j.finished = time.Now()
	if err != nil {
		j.err = err.Error()
	}
	j.spans = append(j.spans, Span{Name: "total", StartMS: 0, DurMS: millis(j.finished.Sub(j.created))})
	switch state {
	case Done:
		m.completed.Add(1)
		j.bumpProgress(1)
	case Failed:
		m.failed.Add(1)
	case Canceled:
		m.canceledN.Add(1)
	}
	if !j.accounted {
		j.accounted = true
		if h := m.cfg.Hooks.Done; h != nil {
			// Fire outside the lock? The hook is a counter bump; keep it
			// simple and document that hooks must not call back into the
			// manager.
			h(j.records)
		}
	}
	if state == Done {
		if h := m.cfg.Hooks.Drained; h != nil && !j.started.IsZero() {
			h(j.records, j.finished.Sub(j.started))
		}
	}

	// Release the dataset; a deferred delete whose last reader just left
	// is removed by the closure, outside the lock.
	var removeDS string
	if j.ds != nil {
		j.ds.refs--
		if j.ds.refs == 0 && j.ds.deleting {
			removeDS = j.ds.path
		}
		j.ds = nil
	}
	rec := record{ID: j.id, JobType: j.typ, Dataset: j.datasetID, Records: j.records, Error: j.err}
	switch state {
	case Done:
		rec.T, rec.Bytes = recDone, j.resultBytes
	case Failed:
		rec.T = recFailed
	default:
		rec.T = recCanceled
	}
	return func() {
		m.jnl.append(rec)
		m.removeFile(removeDS)
	}
}

// Sweep runs one TTL garbage-collection pass at time now and reports how
// many jobs or datasets it transitioned or deleted. Exposed for tests;
// the background loop calls it every GCInterval.
func (m *Manager) Sweep(now time.Time) int {
	m.gcSweeps.Add(1)
	ttl := m.cfg.TTL
	var swept int
	var toRemove []string
	var toJournal []record
	m.mu.Lock()
	for id, ds := range m.datasets {
		// A dataset a live job still reads never expires (refs > 0) —
		// the job, not the clock, decides when it is safe to let go.
		if ds.refs == 0 && now.Sub(ds.lastUsed) > ttl {
			delete(m.datasets, id)
			toRemove = append(toRemove, ds.path)
			toJournal = append(toJournal, record{T: recDatasetDel, ID: id})
			swept++
		}
	}
	for id, j := range m.jobs {
		switch {
		case j.state == Expired:
			if now.Sub(j.expired) > ttl {
				delete(m.jobs, id)
				toJournal = append(toJournal, record{T: recJobDel, ID: id})
				swept++
			}
		case j.state.terminal():
			// An open result stream pins the files: expiry waits for the
			// stream to close instead of unlinking mid-copy.
			if j.resultRefs == 0 && now.Sub(j.finished) > ttl {
				j.state = Expired
				j.expired = now
				if j.resultPath != "" {
					toRemove = append(toRemove, j.resultPath)
					j.resultPath = ""
				}
				toJournal = append(toJournal, record{T: recExpired, ID: id, JobType: j.typ, Dataset: j.datasetID, Records: j.records})
				m.expiredN.Add(1)
				swept++
			}
		}
	}
	m.mu.Unlock()
	for _, p := range toRemove {
		m.removeFile(p)
	}
	for _, rec := range toJournal {
		m.jnl.append(rec)
	}
	return swept
}

// removeFile deletes a spill file and, when present, its checksum
// sidecar, counting successful removals. Files without sidecars
// (scratch) lose nothing to the extra attempt.
func (m *Manager) removeFile(path string) {
	if path == "" {
		return
	}
	if err := os.Remove(path); err == nil {
		m.filesRemoved.Add(1)
	}
	if err := os.Remove(path + extsort.ChecksumSuffix); err == nil {
		m.filesRemoved.Add(1)
	}
}

// gcLoop runs Sweep every GCInterval until Close.
func (m *Manager) gcLoop() {
	defer close(m.gcDone)
	t := time.NewTicker(m.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopGC:
			return
		case now := <-t.C:
			m.Sweep(now)
		}
	}
}

// Close stops the manager: no new admissions, all live jobs canceled,
// workers joined, the GC stopped, and — when the manager created its own
// temp spill directory — the directory removed.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.gcDone
		m.wg.Wait()
		return nil
	}
	m.closed = true
	for _, j := range m.jobs {
		if !j.state.terminal() {
			j.cancel()
		}
	}
	close(m.queue)
	m.mu.Unlock()
	close(m.stopGC)
	<-m.gcDone
	m.wg.Wait()
	m.jnl.close()
	if m.ownDir {
		return os.RemoveAll(m.dir)
	}
	return nil
}

// Snapshot is the jobs subsystem's metrics document, embedded in the
// server's /metrics JSON and rendered as mergepathd_jobs_* on
// /metrics/prom.
type Snapshot struct {
	// Submitted counts admitted jobs since start.
	Submitted uint64 `json:"submitted_total"`
	// Completed counts jobs that reached Done.
	Completed uint64 `json:"completed_total"`
	// Failed counts jobs that reached Failed.
	Failed uint64 `json:"failed_total"`
	// Canceled counts jobs that reached Canceled.
	Canceled uint64 `json:"canceled_total"`
	// Expired counts jobs whose files the TTL sweeper removed.
	Expired uint64 `json:"expired_total"`
	// ShedBusy counts submissions refused because the job queue was full.
	ShedBusy uint64 `json:"shed_busy_total"`
	// Running is the number of jobs executing right now.
	Running int `json:"running"`
	// Pending is the number of jobs waiting in the queue.
	Pending int `json:"pending"`
	// QueueCapacity is the pending-queue bound; a full queue sheds.
	QueueCapacity int `json:"queue_capacity"`
	// MaxConcurrent is the executing-jobs bound.
	MaxConcurrent int `json:"max_concurrent"`
	// Tracked is the number of job records currently retained (all
	// states, including expired records awaiting deletion).
	Tracked int `json:"tracked"`
	// Datasets is the number of datasets currently stored.
	Datasets int `json:"datasets"`
	// DatasetBytes is the bytes of dataset payload currently on disk.
	DatasetBytes int64 `json:"dataset_bytes"`
	// MemoryRecords is the per-job memory budget (extsort M).
	MemoryRecords int `json:"memory_records"`
	// BlockReads accumulates finished jobs' external-sort block reads.
	BlockReads uint64 `json:"block_reads_total"`
	// BlockWrites accumulates finished jobs' external-sort block writes.
	BlockWrites uint64 `json:"block_writes_total"`
	// GCSweeps counts TTL sweeper passes.
	GCSweeps uint64 `json:"gc_sweeps_total"`
	// FilesRemoved counts spill files the manager deleted (GC, cancel
	// cleanup, dataset deletion).
	FilesRemoved uint64 `json:"files_removed_total"`
	// ResultAborts counts result streams that died mid-body (client
	// disconnect or read failure) instead of completing.
	ResultAborts uint64 `json:"result_aborts_total"`
	// Durability is the crash-safety sub-document: journal, fsync,
	// recovery and corruption accounting (docs/DURABILITY.md).
	Durability DurabilitySnapshot `json:"durability"`
}

// DurabilitySnapshot is the crash-safety corner of the jobs metrics
// document, surfaced on /metrics, /metrics/prom and /healthz.
type DurabilitySnapshot struct {
	// JournalEnabled reports whether the write-ahead journal is active.
	JournalEnabled bool `json:"journal_enabled"`
	// FsyncPolicy is the effective policy: always, state or never.
	FsyncPolicy string `json:"fsync_policy"`
	// JournalAppends counts records appended to the journal.
	JournalAppends uint64 `json:"journal_appends_total"`
	// JournalReplayed counts records replayed by the startup recovery.
	JournalReplayed uint64 `json:"journal_replayed_total"`
	// Fsyncs counts fsync calls (journal, data seals, directory).
	Fsyncs uint64 `json:"fsyncs_total"`
	// RecoveredDatasets counts datasets re-registered intact at startup.
	RecoveredDatasets uint64 `json:"recovered_datasets_total"`
	// RecoveredResults counts done jobs whose results survived restart.
	RecoveredResults uint64 `json:"recovered_results_total"`
	// RecoveredFailed counts in-flight jobs marked failed(restart).
	RecoveredFailed uint64 `json:"recovered_failed_total"`
	// OrphansRemoved counts unaccounted files the recovery pass deleted.
	OrphansRemoved uint64 `json:"orphans_removed_total"`
	// CorruptionDetected counts integrity failures caught by checksums
	// (never silently streamed).
	CorruptionDetected uint64 `json:"corruption_detected_total"`
}

// Snapshot assembles the current metrics document.
func (m *Manager) Snapshot() Snapshot {
	s := Snapshot{
		Submitted:     m.submitted.Load(),
		Completed:     m.completed.Load(),
		Failed:        m.failed.Load(),
		Canceled:      m.canceledN.Load(),
		Expired:       m.expiredN.Load(),
		ShedBusy:      m.shedBusy.Load(),
		QueueCapacity: m.cfg.MaxQueued,
		MaxConcurrent: m.cfg.MaxConcurrent,
		MemoryRecords: m.cfg.MemoryRecords,
		BlockReads:    m.blockReads.Load(),
		BlockWrites:   m.blockWrites.Load(),
		GCSweeps:      m.gcSweeps.Load(),
		FilesRemoved:  m.filesRemoved.Load(),
		ResultAborts:  m.resultAborts.Load(),
		Durability: DurabilitySnapshot{
			JournalEnabled:     m.jnl != nil,
			FsyncPolicy:        string(m.cfg.Fsync),
			JournalAppends:     m.jAppends.Load(),
			JournalReplayed:    m.jReplayed.Load(),
			Fsyncs:             m.fsyncs.Load(),
			RecoveredDatasets:  m.recDatasets.Load(),
			RecoveredResults:   m.recResults.Load(),
			RecoveredFailed:    m.recFailed.Load(),
			OrphansRemoved:     m.orphansRemoved.Load(),
			CorruptionDetected: m.corruption.Load(),
		},
	}
	m.mu.Lock()
	s.Running = m.running
	s.Pending = m.pending
	s.Tracked = len(m.jobs)
	s.Datasets = len(m.datasets)
	for _, ds := range m.datasets {
		s.DatasetBytes += ds.Bytes
	}
	m.mu.Unlock()
	return s
}

// ID generation: a per-process random prefix plus a monotonic sequence —
// unique within a process, collision-resistant across restarts, short
// enough to read in logs.
var (
	idSeq    atomic.Uint64
	idPrefix = func() string {
		var b [3]byte
		if _, err := crand.Read(b[:]); err != nil {
			return "000000"
		}
		return hex.EncodeToString(b[:])
	}()
)

func nextID() string {
	return idPrefix + "-" + strconv.FormatUint(idSeq.Add(1), 10)
}

// millis converts a duration to float milliseconds (the repo's JSON unit
// policy).
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

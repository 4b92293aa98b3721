package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mergepath/internal/core"
	"mergepath/internal/overload"
)

// Admission-control and lifecycle errors, mapped to HTTP codes by the
// handlers.
var (
	// ErrQueueFull means the bounded admission queue rejected the job —
	// the daemon sheds load with 503 instead of queueing unboundedly.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining means the daemon is shutting down and admits no new work.
	ErrDraining = errors.New("server: draining, not accepting work")
	// ErrDeadline means the job's deadline expired before it finished.
	ErrDeadline = errors.New("server: deadline exceeded before execution")
	// ErrCanceled means the client abandoned the request (disconnect or
	// explicit cancel) before it finished. Distinct from ErrDeadline: a
	// cancel is the client's choice, not a server timeout, so it maps to
	// the 499 class and its own counter, never to 504/timeouts.
	ErrCanceled = errors.New("server: request canceled by client")
	// ErrOverloaded means the CoDel admission controller is shedding: queue
	// sojourn time has exceeded its target long enough that brownout alone
	// cannot keep up. Maps to 429 with a computed Retry-After, distinct
	// from ErrQueueFull (503) which is the hard capacity backstop.
	ErrOverloaded = errors.New("server: overloaded, shedding new work")
)

// PanicError is a panic recovered inside a round, converted to a per-job
// error so one poisoned request cannot take down the dispatcher or its
// round-mates. The handlers map it to 500.
type PanicError struct {
	Value any // the recovered panic value
}

// Error renders the recovered panic value.
func (e *PanicError) Error() string { return fmt.Sprintf("server: round panicked: %v", e.Value) }

// job is one unit of admitted work. Exactly one of pair/run is set:
// pair jobs are small merges the dispatcher coalesces into one globally
// load-balanced core.MergeRound; run jobs (large merges, sorts, k-way
// merges, set operations) take the whole pool for one round. run
// receives the request context and must observe its cancellation at
// chunk boundaries; a non-nil return fails the job (ctx errors are
// normalized to ErrCanceled/ErrDeadline, anything else maps to 500).
type job struct {
	pair      *core.Pair[int64]
	run       func(ctx context.Context, workers int) error
	fault     func() error // optional injection hook (internal/fault); runs inside recovery
	ctx       context.Context
	deadline  time.Time
	done      chan error // buffered(1): the dispatcher never blocks on it
	trace     *Trace     // nil-safe span sink; nil for untraced work
	submitted time.Time  // when the job entered the admission queue
	parked    time.Time  // when a pair job entered the pending buffer
	elems     int        // output elements this job represents (overload backlog accounting)
}

// expired reports whether the job's deadline has passed at now.
func (j *job) expired(now time.Time) bool {
	return !j.deadline.IsZero() && now.After(j.deadline)
}

// canceled reports whether the request context was canceled by the
// client (as opposed to expiring, which expired covers).
func (j *job) canceled() bool {
	return j.ctx != nil && context.Cause(j.ctx) == context.Canceled
}

// pool multiplexes all in-flight requests onto one fixed set of workers.
//
// Architecture: a bounded queue (admission control) feeds a single
// dispatcher goroutine that executes *rounds*. Small merges that are
// already queued together run as ONE core.MergeRound — p workers split
// the combined output of every coalesced request evenly, so a burst of
// skewed little requests cannot starve any worker (the paper's
// load-balance argument applied across requests instead of within one).
// No pair waits for a future arrival: the partition balances a round of
// one pair as well as a round of many, so the dispatcher flushes as
// soon as the queue is empty (or the round reaches batchElements).
// Requests arriving while a round runs queue behind the dispatcher and
// join the next one. Everything else runs as its own round via the
// job's run closure with all workers. One round executes at a time;
// each round engages every worker; the goroutine count is bounded by
// workers+1 regardless of offered load.
//
// Lifecycle hardening: every round executes behind panic recovery (a
// request-induced panic becomes that job's error, the dispatcher and all
// other requests live on), jobs whose deadline passed or whose client
// went away are dropped at dequeue AND at batch-flush time, and run
// closures observe request-context cancellation at chunk boundaries so
// an abandoned 100M-element round frees the pool early.
type pool struct {
	workers int
	queue   chan *job
	// mu serializes admissions against shutdown: submit holds the read
	// side while sending, close holds the write side while setting
	// draining and closing the queue, so a send can never hit a closed
	// channel.
	mu       sync.RWMutex
	draining bool
	stopped  chan struct{} // closed when the dispatcher exits

	m            *Metrics
	ctrl         *overload.Controller // adaptive admission + brownout; never nil
	busyNanos    atomic.Int64         // time spent executing rounds
	queueDepth   atomic.Int64
	panicLogs    atomic.Uint64 // recovered panics logged (stacks rate-limited)
	flushPending func([]*job)  // test hook; nil in production
}

// batchElements caps one coalesced round: the dispatcher flushes early
// once the parked pairs' combined output reaches it.
const batchElements = 1 << 20

func newPool(workers, queueDepth int, m *Metrics, ctrl *overload.Controller) *pool {
	if ctrl == nil {
		ctrl = overload.New(overload.Config{})
	}
	p := &pool{
		workers: workers,
		queue:   make(chan *job, queueDepth),
		stopped: make(chan struct{}),
		m:       m,
		ctrl:    ctrl,
	}
	go p.dispatch()
	return p
}

// effectiveWorkers is the per-round parallelism under brownout: when
// degraded or shedding, cap each round at half the pool so a single
// huge run job cannot monopolize every worker while the queue backs up.
// The paper's per-worker cost bound (Theorem 5) means halving workers
// at most doubles one round's latency — a predictable trade.
func (p *pool) effectiveWorkers() int {
	if p.ctrl.State() != overload.Healthy {
		if w := p.workers / 2; w >= 1 {
			return w
		}
		return 1
	}
	return p.workers
}

// finish completes a job: releases its elements from the overload
// backlog, then delivers err on the (buffered) done channel. Every
// completion path must go through here exactly once or the controller's
// backlog drifts.
func (p *pool) finish(j *job, err error) {
	p.ctrl.Done(j.elems)
	j.done <- err
}

// submit admits a job or rejects it immediately (never blocks): the
// admission queue is a fixed-capacity channel and a full channel is a
// shed, not a wait.
func (p *pool) submit(j *job) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.draining {
		return ErrDraining
	}
	// Enqueue before the channel send: once the job is in the queue the
	// dispatcher may finish it (calling Done) at any moment, and the
	// backlog must never go transiently negative.
	p.ctrl.Enqueue(j.elems)
	select {
	case p.queue <- j:
		p.queueDepth.Add(1)
		return nil
	default:
		p.ctrl.Done(j.elems) // roll back: the job was never admitted
		return ErrQueueFull
	}
}

// do submits the job and waits for completion, ctx expiry, or client
// cancellation. An abandoned job does not run to completion behind the
// client's back: the dispatcher skips jobs whose deadline passed or
// whose ctx was canceled, drops expired coalesced pairs at flush time,
// and run closures observe ctx at chunk boundaries mid-round.
func (p *pool) do(ctx context.Context, j *job) error {
	j.ctx = ctx
	if dl, ok := ctx.Deadline(); ok {
		j.deadline = dl
	}
	j.submitted = time.Now()
	if err := p.submit(j); err != nil {
		return err
	}
	select {
	case err := <-j.done:
		return normalizeCtxErr(err)
	case <-ctx.Done():
		if context.Cause(ctx) == context.Canceled {
			return ErrCanceled
		}
		return ErrDeadline
	}
}

// normalizeCtxErr maps raw context errors escaping a run closure onto
// the pool's error vocabulary, so handlers see one canonical error per
// outcome no matter which side (waiter or dispatcher) observed it first.
func normalizeCtxErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	default:
		return err
	}
}

// dispatch is the round loop. It owns `pending` (coalesced small merges)
// entirely — no other goroutine touches it — so the only synchronization
// in the whole engine is the queue channel and the per-job done channels.
//
// While pairs are parked it only takes what is already queued: once a
// non-blocking receive finds the queue empty, the parked pairs run. That
// one check covers every way the queue empties, including a job dropped
// at dequeue as expired or canceled behind a parked pair.
func (p *pool) dispatch() {
	defer close(p.stopped)
	var (
		pending      []*job
		pendingElems int
	)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		p.runBatch(pending)
		pending = pending[:0]
		pendingElems = 0
	}
	handle := func(j *job) {
		p.queueDepth.Add(-1)
		now := time.Now()
		p.ctrl.ObserveSojourn(now.Sub(j.submitted))
		j.trace.span(StageQueueWait, j.submitted)
		// Expired or abandoned while queued: drop it unexecuted. The
		// handler (or its abandoned ctx wait) accounts the timeout or
		// cancel; doing it here too would double count.
		if j.expired(now) {
			p.finish(j, ErrDeadline)
			return
		}
		if j.canceled() {
			p.finish(j, ErrCanceled)
			return
		}
		if j.pair != nil {
			j.parked = time.Now()
			pending = append(pending, j)
			pendingElems += len(j.pair.Out)
			if pendingElems >= batchElements {
				flush()
			}
			return
		}
		// A run job forms its own round. Flush first so earlier small
		// requests aren't held hostage behind a big one.
		flush()
		start := time.Now()
		err := p.runRound(j)
		took := time.Since(start)
		p.busyNanos.Add(took.Nanoseconds())
		if err == nil {
			p.ctrl.ObserveDrain(j.elems, took)
		}
		p.finish(j, err)
	}
	for {
		var (
			j  *job
			ok bool
		)
		if len(pending) == 0 {
			j, ok = <-p.queue
		} else {
			select {
			case j, ok = <-p.queue:
			default:
				flush() // nothing more is queued: run what is parked now
				continue
			}
		}
		if !ok {
			flush()
			return
		}
		handle(j)
	}
}

// runRound executes one run job with panic isolation: a panic anywhere
// inside the fault hook or the run closure is recovered into that job's
// error, stack-logged, and counted — the dispatcher keeps going.
func (p *pool) runRound(j *job) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = p.recovered(v, j.trace.ID())
		}
	}()
	if j.fault != nil {
		if ferr := j.fault(); ferr != nil {
			return ferr
		}
	}
	ctx := j.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return j.run(ctx, p.effectiveWorkers())
}

// panicStackLogLimit caps how many recovered panics get a full stack in
// the log: a panic storm (adversarial traffic, chaos mode) must not
// flood the log at one stack per request. The count keeps going; the
// stacks stop.
const panicStackLogLimit = 5

// recovered converts a round panic into a job error: counted, stack
// logged (rate-limited), dispatcher alive. reqID ties the log line to
// the offending request's trace ("" for shared batch rounds, where no
// single request owns the round yet).
func (p *pool) recovered(v any, reqID string) error {
	if p.m != nil {
		p.m.panics.Add(1)
	}
	if reqID == "" {
		reqID = "-"
	}
	if n := p.panicLogs.Add(1); n <= panicStackLogLimit {
		log.Printf("server: recovered panic in round (req=%s): %v\n%s", reqID, v, debug.Stack())
	} else {
		log.Printf("server: recovered panic in round (req=%s): %v (stacks suppressed after %d)", reqID, v, panicStackLogLimit)
	}
	return &PanicError{Value: v}
}

// runBatch executes one coalesced round: every still-live pending pair
// merged by one globally balanced batch round, all workers splitting the
// combined output evenly.
//
// Lifecycle at flush time:
//   - pairs whose deadline passed between dequeue and flush are dropped
//     and counted as shed-at-flush — the client already got its 504,
//     merging anyway would be silent wasted work;
//   - pairs whose client canceled are dropped the same way;
//   - per-pair fault hooks run under per-job recovery, so an injected
//     panic or error fails only its own job;
//   - the batch round itself runs under recovery; if it panics, the
//     round is quarantined — each surviving pair re-runs alone under its
//     own recovery, so exactly the poisoned pair fails and its
//     round-mates still get correct 200s.
func (p *pool) runBatch(jobs []*job) {
	if p.flushPending != nil {
		p.flushPending(jobs)
	}
	now := time.Now()
	live := make([]*job, 0, len(jobs))
	for _, j := range jobs {
		j.trace.span(StageCoalesceWait, j.parked)
		switch {
		case j.expired(now):
			if p.m != nil {
				p.m.shedFlush.Add(1)
			}
			p.finish(j, ErrDeadline)
		case j.canceled():
			if p.m != nil {
				p.m.shedFlush.Add(1)
			}
			p.finish(j, ErrCanceled)
		default:
			if err := p.runPairFault(j); err != nil {
				p.finish(j, err)
				continue
			}
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return
	}
	pairs := make([]core.Pair[int64], len(live))
	traces := make([]*Trace, len(live))
	elems := 0
	for i, j := range live {
		pairs[i] = *j.pair
		traces[i] = j.trace
		elems += len(j.pair.Out)
	}
	start := time.Now()
	ws, err := p.safeRound(pairs)
	if err != nil {
		// Quarantine: one pair poisoned the round. Re-merge each pair
		// individually, each under its own recovery, so only the
		// culprit's job fails.
		for _, j := range live {
			p.finish(j, p.safeMergeOne(j))
		}
		p.busyNanos.Add(time.Since(start).Nanoseconds())
		return
	}
	took := time.Since(start)
	p.busyNanos.Add(took.Nanoseconds())
	p.ctrl.ObserveDrain(elems, took)
	p.m.recordRound(start, ws, len(pairs), traces...)
	for _, j := range live {
		p.finish(j, nil)
	}
}

// runPairFault runs a pair job's fault hook (if any) with panic
// isolation; the returned error fails just that job.
func (p *pool) runPairFault(j *job) (err error) {
	if j.fault == nil {
		return nil
	}
	defer func() {
		if v := recover(); v != nil {
			err = p.recovered(v, j.trace.ID())
		}
	}()
	return j.fault()
}

// safeRound is the coalesced round's core.MergeRound behind panic
// recovery.
func (p *pool) safeRound(pairs []core.Pair[int64]) (ws []core.WorkerStat, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = p.recovered(v, "")
		}
	}()
	workers := p.effectiveWorkers()
	return core.MergeRound(context.Background(), pairs, workers, make([]core.WorkerStat, workers))
}

// safeMergeOne re-merges a single quarantined pair sequentially behind
// panic recovery. Pairs are small by construction (they passed the
// coalesce limit), so losing parallelism on this salvage path is cheap.
func (p *pool) safeMergeOne(j *job) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = p.recovered(v, j.trace.ID())
		}
	}()
	core.Merge(j.pair.A, j.pair.B, j.pair.Out)
	return nil
}

// depth reports the current admission-queue depth.
func (p *pool) depth() int { return int(p.queueDepth.Load()) }

// close stops admissions, drains every queued job, and waits (up to ctx)
// for the dispatcher to finish in-flight rounds. Safe to call more than
// once.
func (p *pool) close(ctx context.Context) error {
	p.mu.Lock()
	already := p.draining
	p.draining = true
	if !already {
		close(p.queue) // no submit can be in flight: they hold mu.RLock
	}
	p.mu.Unlock()
	select {
	case <-p.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

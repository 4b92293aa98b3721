// Package overload is the daemon's adaptive overload controller: a
// queue-delay (CoDel-style) admission governor with brownout
// degradation and hysteresis.
//
// The classic CoDel insight is that queue *length* is a bad congestion
// signal (bursts legitimately fill queues) but queue *sojourn time* is a
// good one: if even the luckiest job of the last interval waited longer
// than the target, the queue is standing, not draining. The paper's
// Theorem 5 makes this unusually tractable here — every round hands each
// worker (|A|+|B|)/p elements, so per-element service cost is stable and
// the controller can convert "queued elements ÷ measured drain rate"
// into an honest Retry-After instead of a guess.
//
// The controller runs a three-state machine with hysteresis:
//
//	healthy  --(1 bad interval)-->  degraded  --(ShedIntervals consecutive
//	   ^                               |  ^          bad intervals)--> shedding
//	   |                               |  |                               |
//	   +--(RecoverIntervals good)------+  +----(RecoverIntervals good)----+
//
// An interval is *bad* when the minimum queue sojourn observed during it
// exceeds Target (or when nothing dequeued at all while admitted
// requests stood through the whole interval; background work such as
// out-of-core jobs counts toward Retry-After but never stalls the
// queue). In degraded the server browns out — capped per-round
// parallelism — but still serves everything; in shedding
// it refuses new work with 429 and a computed Retry-After.
// Stepping down (shedding→degraded→healthy) requires RecoverIntervals
// consecutive good intervals per step, so recovery is clean rather than
// oscillating on the first quiet millisecond.
//
// All methods are safe for concurrent use. The zero Controller is not
// usable; construct with New.
package overload

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// State is the controller's position in the overload state machine.
type State int32

// The three overload states, in order of escalation.
const (
	// Healthy: sojourn under target; full parallelism, everything
	// admitted.
	Healthy State = iota
	// Degraded: sustained sojourn over target; the server browns out
	// (capped per-round parallelism) but still admits all work.
	Degraded
	// Shedding: pressure persisted through the brownout; new work is
	// refused with 429 and a Retry-After computed from the measured
	// drain rate.
	Shedding
)

// String names the state for /healthz, /metrics and logs.
func (s State) String() string {
	switch s {
	case Degraded:
		return "degraded"
	case Shedding:
		return "shedding"
	default:
		return "healthy"
	}
}

// Config tunes the controller. Zero values select the documented
// defaults.
type Config struct {
	// Target is the acceptable minimum queue sojourn per interval; an
	// interval whose best job waited longer is bad. Default 5ms.
	Target time.Duration
	// Interval is the evaluation window over which the minimum sojourn
	// is tracked. Default 100ms.
	Interval time.Duration
	// ShedIntervals is how many consecutive bad intervals escalate
	// degraded to shedding (the first bad interval already entered
	// degraded). Default 3.
	ShedIntervals int
	// RecoverIntervals is how many consecutive good intervals step the
	// state down one level (shedding→degraded, degraded→healthy) — the
	// hysteresis that keeps recovery from oscillating. Default 2.
	RecoverIntervals int
	// MinRetryAfter is the lower clamp of the computed Retry-After.
	// Default 1s.
	MinRetryAfter time.Duration
	// MaxRetryAfter is the upper clamp of the computed Retry-After.
	// Default 30s.
	MaxRetryAfter time.Duration
	// DrainAlpha is the EWMA weight of the newest drain-rate sample in
	// (0,1]. Default 0.3.
	DrainAlpha float64
}

func (c Config) withDefaults() Config {
	if c.Target <= 0 {
		c.Target = 5 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.ShedIntervals <= 0 {
		c.ShedIntervals = 3
	}
	if c.RecoverIntervals <= 0 {
		c.RecoverIntervals = 2
	}
	if c.MinRetryAfter <= 0 {
		c.MinRetryAfter = time.Second
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 30 * time.Second
	}
	if c.MaxRetryAfter < c.MinRetryAfter {
		c.MaxRetryAfter = c.MinRetryAfter
	}
	if c.DrainAlpha <= 0 || c.DrainAlpha > 1 {
		c.DrainAlpha = 0.3
	}
	return c
}

// Controller tracks queue sojourn, backlog and drain rate, and runs the
// healthy/degraded/shedding state machine.
type Controller struct {
	cfg   Config
	clock func() time.Time // time.Now; tests substitute a synthetic clock

	state    atomic.Int32 // State; atomic so brownout checks are lock-free
	backlog  atomic.Int64 // elements admitted but not yet finished, requests and jobs
	requests atomic.Int64 // the requests' share of backlog, the only work that can stall

	mu            sync.Mutex
	intervalStart time.Time
	standingSince time.Time     // when requests last rose from zero
	minSojourn    time.Duration // min sojourn observed this interval
	sawSojourn    bool          // any dequeue observed this interval
	lastMin       time.Duration // min sojourn of the last completed interval
	lastMinValid  bool
	badStreak     int     // consecutive bad intervals
	goodStreak    int     // consecutive good intervals
	drainRate     float64 // elements/second, EWMA; 0 = no sample yet

	// Transition and shed counters, exported via Snapshot.
	sheds      atomic.Uint64 // admissions refused while shedding
	toDegraded atomic.Uint64 // transitions into degraded (either direction)
	toShedding atomic.Uint64 // transitions into shedding
	toHealthy  atomic.Uint64 // full recoveries back to healthy
}

// New builds a Controller; the first interval starts now.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults(), clock: time.Now, intervalStart: time.Now()}
}

// Config reports the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// State reports the current overload state (lock-free; the dispatcher
// reads it on every flush decision).
func (c *Controller) State() State { return State(c.state.Load()) }

// Enqueue records n request elements entering the admission backlog.
func (c *Controller) Enqueue(n int) { c.enqueue(n, c.clock()) }

func (c *Controller) enqueue(n int, now time.Time) {
	if n <= 0 {
		return
	}
	c.backlog.Add(int64(n))
	if c.requests.Add(int64(n)) != int64(n) {
		return
	}
	// Requests rose from zero: work stands from now on. Racing rises
	// keep the latest stamp, which is the one still standing.
	c.mu.Lock()
	if now.After(c.standingSince) {
		c.standingSince = now
	}
	c.mu.Unlock()
}

// Done records n request elements leaving the backlog (finished, shed
// at flush, or dropped at dequeue).
func (c *Controller) Done(n int) {
	c.requests.Add(int64(-n))
	c.backlog.Add(int64(-n))
}

// EnqueueJob records n elements of background work (an out-of-core
// job) entering the backlog. They lengthen Retry-After like request
// elements, but the stall verdict ignores them: a job runs outside the
// request queue, so it standing with no dequeue says nothing about
// that queue.
func (c *Controller) EnqueueJob(n int) { c.backlog.Add(int64(n)) }

// DoneJob records n elements of background work leaving the backlog.
func (c *Controller) DoneJob(n int) { c.backlog.Add(int64(-n)) }

// Backlog reports elements admitted but not yet finished.
func (c *Controller) Backlog() int64 { return c.backlog.Load() }

// ObserveSojourn records one job's queue wait (submit → dequeue). This
// is the controller's congestion signal: the per-interval minimum of
// these is compared against Target.
func (c *Controller) ObserveSojourn(wait time.Duration) { c.observeSojourn(wait, c.clock()) }

func (c *Controller) observeSojourn(wait time.Duration, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tickLocked(now)
	if !c.sawSojourn || wait < c.minSojourn {
		c.minSojourn = wait
	}
	c.sawSojourn = true
}

// ObserveDrain folds one completed round (elems output elements in
// took wall time) into the EWMA drain-rate estimate.
func (c *Controller) ObserveDrain(elems int, took time.Duration) {
	if elems <= 0 || took <= 0 {
		return
	}
	sample := float64(elems) / took.Seconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.drainRate == 0 {
		c.drainRate = sample
	} else {
		c.drainRate += c.cfg.DrainAlpha * (sample - c.drainRate)
	}
}

// Admit decides one new request's fate: admitted (true, 0) or shed
// (false, computed Retry-After). Only the shedding state refuses work.
func (c *Controller) Admit() (bool, time.Duration) { return c.admit(c.clock()) }

func (c *Controller) admit(now time.Time) (bool, time.Duration) {
	c.mu.Lock()
	c.tickLocked(now)
	shedding := State(c.state.Load()) == Shedding
	ra := time.Duration(0)
	if shedding {
		ra = c.retryAfterLocked()
	}
	c.mu.Unlock()
	if shedding {
		c.sheds.Add(1)
		return false, ra
	}
	return true, 0
}

// RetryAfter estimates how long the standing backlog takes to drain at
// the measured rate, clamped to [MinRetryAfter, MaxRetryAfter]. This is
// the value 429s and 503s carry instead of a hardcoded constant.
func (c *Controller) RetryAfter() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retryAfterLocked()
}

func (c *Controller) retryAfterLocked() time.Duration {
	ra := c.cfg.MinRetryAfter
	if rate := c.drainRate; rate > 0 {
		if est := time.Duration(float64(c.backlog.Load()) / rate * float64(time.Second)); est > ra {
			ra = est
		}
	}
	if ra > c.cfg.MaxRetryAfter {
		ra = c.cfg.MaxRetryAfter
	}
	return ra
}

// RetryAfterSeconds is RetryAfter rounded up to whole seconds — the
// integer form the HTTP Retry-After header speaks. Always ≥ 1.
func (c *Controller) RetryAfterSeconds() int {
	secs := int(math.Ceil(c.RetryAfter().Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// tickLocked closes out every interval that has fully elapsed since the
// last evaluation. The controller is driven by traffic (and by metrics
// scrapes), not by its own timer: after an idle gap, all the elapsed
// intervals are settled here — empty intervals with no standing
// requests count as good, so an idle daemon recovers.
func (c *Controller) tickLocked(now time.Time) {
	// Intervals with no sojourn sample all get the same verdict (decided
	// by the standing requests alone), and identical verdicts beyond one
	// full escalation (1+ShedIntervals bad) or recovery
	// (2×RecoverIntervals good) streak are idempotent. After a long gap,
	// fast-forward across the idempotent span instead of settling
	// O(gap/Interval) intervals one at a time under the lock.
	keep := c.cfg.Interval * time.Duration(2*c.cfg.RecoverIntervals+c.cfg.ShedIntervals+1)
	for now.Sub(c.intervalStart) >= c.cfg.Interval {
		if !c.sawSojourn && now.Sub(c.intervalStart) > keep {
			c.intervalStart = now.Add(-keep)
		}
		bad := false
		switch {
		case c.sawSojourn:
			bad = c.minSojourn > c.cfg.Target
		case c.requests.Load() > 0 && !c.standingSince.After(c.intervalStart):
			// Nothing dequeued all interval while requests stood through
			// all of it: the queue is stalled, which is at least as bad
			// as slow. Requests that arrived mid-interval are judged by
			// their sojourn when they dequeue, not by the boundary they
			// straddle. Jobs are not requests and never stall it.
			bad = true
		}
		c.lastMin, c.lastMinValid = c.minSojourn, c.sawSojourn
		c.sawSojourn = false
		c.minSojourn = 0
		c.evaluateLocked(bad)
		c.intervalStart = c.intervalStart.Add(c.cfg.Interval)
	}
}

// evaluateLocked applies one interval verdict to the state machine.
func (c *Controller) evaluateLocked(bad bool) {
	st := State(c.state.Load())
	if bad {
		c.goodStreak = 0
		c.badStreak++
		switch {
		case st == Healthy:
			c.state.Store(int32(Degraded))
			c.toDegraded.Add(1)
		case st == Degraded && c.badStreak >= c.cfg.ShedIntervals:
			c.state.Store(int32(Shedding))
			c.toShedding.Add(1)
		}
		return
	}
	c.badStreak = 0
	c.goodStreak++
	if c.goodStreak < c.cfg.RecoverIntervals {
		return
	}
	// One full recovery streak steps down exactly one level, then the
	// streak restarts: shedding must hold degraded for another
	// RecoverIntervals before healthy.
	c.goodStreak = 0
	switch st {
	case Shedding:
		c.state.Store(int32(Degraded))
		c.toDegraded.Add(1)
	case Degraded:
		c.state.Store(int32(Healthy))
		c.toHealthy.Add(1)
	}
}

// Snapshot is the controller's exported view, embedded in the daemon's
// /metrics document and rendered on /metrics/prom and /healthz.
type Snapshot struct {
	// State is the current overload state: "healthy", "degraded" or
	// "shedding".
	State string `json:"state"`
	// StateCode is the numeric form of State (0 healthy, 1 degraded,
	// 2 shedding) for dashboards that want a plottable series.
	StateCode int `json:"state_code"`
	// TargetMS echoes the configured sojourn target in milliseconds.
	TargetMS float64 `json:"target_ms"`
	// IntervalMS echoes the configured evaluation interval in
	// milliseconds.
	IntervalMS float64 `json:"interval_ms"`
	// SojournMinMS is the minimum queue sojourn of the last completed
	// interval that saw traffic (the CoDel congestion signal).
	SojournMinMS float64 `json:"sojourn_min_ms"`
	// BacklogElements is elements admitted but not yet finished.
	BacklogElements int64 `json:"backlog_elements"`
	// DrainElemsPerSec is the EWMA element throughput of completed
	// rounds; 0 until the first round finishes.
	DrainElemsPerSec float64 `json:"drain_elems_per_sec"`
	// RetryAfterSeconds is the current computed Retry-After (whole
	// seconds, ≥1): backlog ÷ drain rate, clamped.
	RetryAfterSeconds int `json:"retry_after_s"`
	// ShedTotal counts admissions refused with 429 while shedding.
	ShedTotal uint64 `json:"shed_total"`
	// TransitionsDegraded counts state-machine entries into degraded
	// (escalations from healthy and step-downs from shedding).
	TransitionsDegraded uint64 `json:"transitions_degraded_total"`
	// TransitionsShedding counts escalations into shedding.
	TransitionsShedding uint64 `json:"transitions_shedding_total"`
	// TransitionsHealthy counts full recoveries back to healthy.
	TransitionsHealthy uint64 `json:"transitions_healthy_total"`
}

// SnapshotNow settles elapsed intervals and returns the current view, so
// metrics scrapes both report fresh state and drive recovery during
// idle periods.
func (c *Controller) SnapshotNow() Snapshot { return c.snapshotAt(c.clock()) }

func (c *Controller) snapshotAt(now time.Time) Snapshot {
	c.mu.Lock()
	c.tickLocked(now)
	st := State(c.state.Load())
	s := Snapshot{
		State:            st.String(),
		StateCode:        int(st),
		TargetMS:         float64(c.cfg.Target) / float64(time.Millisecond),
		IntervalMS:       float64(c.cfg.Interval) / float64(time.Millisecond),
		BacklogElements:  c.backlog.Load(),
		DrainElemsPerSec: c.drainRate,
	}
	if c.lastMinValid {
		s.SojournMinMS = float64(c.lastMin) / float64(time.Millisecond)
	}
	ra := int(math.Ceil(c.retryAfterLocked().Seconds()))
	c.mu.Unlock()
	if ra < 1 {
		ra = 1
	}
	s.RetryAfterSeconds = ra
	s.ShedTotal = c.sheds.Load()
	s.TransitionsDegraded = c.toDegraded.Load()
	s.TransitionsShedding = c.toShedding.Load()
	s.TransitionsHealthy = c.toHealthy.Load()
	return s
}

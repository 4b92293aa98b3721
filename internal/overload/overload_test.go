package overload

import (
	"sync"
	"testing"
	"time"
)

// clock hands out deterministic instants so interval math is exact.
type clock struct{ t time.Time }

func newClock() *clock { return &clock{t: time.Unix(1000, 0)} }

func (c *clock) now() time.Time                    { return c.t }
func (c *clock) advance(d time.Duration) time.Time { c.t = c.t.Add(d); return c.t }
func newTestController(cl *clock, cfg Config) *Controller {
	ctrl := New(cfg)
	ctrl.clock = cl.now
	ctrl.mu.Lock()
	ctrl.intervalStart = cl.t
	ctrl.mu.Unlock()
	return ctrl
}

var testCfg = Config{
	Target:           time.Millisecond,
	Interval:         10 * time.Millisecond,
	ShedIntervals:    3,
	RecoverIntervals: 2,
}

// badInterval feeds one over-target sojourn and closes the interval.
func badInterval(ctrl *Controller, cl *clock) {
	ctrl.observeSojourn(5*time.Millisecond, cl.now())
	cl.advance(testCfg.Interval)
	ctrl.admit(cl.now())
}

// goodInterval feeds one under-target sojourn and closes the interval.
func goodInterval(ctrl *Controller, cl *clock) {
	ctrl.observeSojourn(100*time.Microsecond, cl.now())
	cl.advance(testCfg.Interval)
	ctrl.admit(cl.now())
}

func TestEscalationHealthyDegradedShedding(t *testing.T) {
	cl := newClock()
	ctrl := newTestController(cl, testCfg)
	if st := ctrl.State(); st != Healthy {
		t.Fatalf("initial state %v, want healthy", st)
	}
	badInterval(ctrl, cl)
	if st := ctrl.State(); st != Degraded {
		t.Fatalf("after 1 bad interval: %v, want degraded", st)
	}
	badInterval(ctrl, cl) // streak 2: still degraded
	if st := ctrl.State(); st != Degraded {
		t.Fatalf("after 2 bad intervals: %v, want degraded", st)
	}
	badInterval(ctrl, cl) // streak 3 = ShedIntervals: shedding
	if st := ctrl.State(); st != Shedding {
		t.Fatalf("after 3 bad intervals: %v, want shedding", st)
	}
	if ok, ra := ctrl.admit(cl.now()); ok || ra < ctrl.cfg.MinRetryAfter {
		t.Fatalf("shedding admit = (%v, %v), want refusal with Retry-After >= min", ok, ra)
	}
	snap := ctrl.snapshotAt(cl.now())
	if snap.ShedTotal == 0 || snap.TransitionsShedding != 1 || snap.TransitionsDegraded != 1 {
		t.Fatalf("snapshot counters %+v", snap)
	}
}

func TestRecoveryHysteresis(t *testing.T) {
	cl := newClock()
	ctrl := newTestController(cl, testCfg)
	for i := 0; i < 3; i++ {
		badInterval(ctrl, cl)
	}
	if st := ctrl.State(); st != Shedding {
		t.Fatalf("setup: %v, want shedding", st)
	}
	// One good interval is not enough (hysteresis).
	goodInterval(ctrl, cl)
	if st := ctrl.State(); st != Shedding {
		t.Fatalf("after 1 good interval: %v, want still shedding", st)
	}
	goodInterval(ctrl, cl)
	if st := ctrl.State(); st != Degraded {
		t.Fatalf("after 2 good intervals: %v, want degraded", st)
	}
	// Stepping down resets the streak: two more needed for healthy.
	goodInterval(ctrl, cl)
	if st := ctrl.State(); st != Degraded {
		t.Fatalf("one good interval after step-down: %v, want degraded", st)
	}
	goodInterval(ctrl, cl)
	if st := ctrl.State(); st != Healthy {
		t.Fatalf("after full recovery streak: %v, want healthy", st)
	}
	if n := ctrl.snapshotAt(cl.now()).TransitionsHealthy; n != 1 {
		t.Fatalf("recoveries = %d, want 1", n)
	}
}

func TestGoodTrafficInterruptsEscalation(t *testing.T) {
	cl := newClock()
	ctrl := newTestController(cl, testCfg)
	badInterval(ctrl, cl)
	badInterval(ctrl, cl)
	goodInterval(ctrl, cl) // resets the bad streak
	badInterval(ctrl, cl)
	badInterval(ctrl, cl)
	if st := ctrl.State(); st != Degraded {
		t.Fatalf("bad streak never reached ShedIntervals consecutively: %v, want degraded", st)
	}
}

func TestStalledQueueIsBad(t *testing.T) {
	cl := newClock()
	ctrl := newTestController(cl, testCfg)
	ctrl.Enqueue(1000)
	// A whole interval with a standing backlog and zero dequeues must
	// count as bad even though no sojourn was observed.
	cl.advance(testCfg.Interval)
	ctrl.admit(cl.now())
	if st := ctrl.State(); st != Degraded {
		t.Fatalf("stalled interval: %v, want degraded", st)
	}
	// Drained backlog + idle intervals are good: idle recovery works.
	ctrl.Done(1000)
	cl.advance(4 * testCfg.Interval)
	ctrl.admit(cl.now())
	if st := ctrl.State(); st != Healthy {
		t.Fatalf("idle after drain: %v, want healthy", st)
	}
}

func TestJobBacklogIsNotStalled(t *testing.T) {
	// An out-of-core job's elements stand for many intervals with no
	// request at all: nothing queues, so nothing is stalled, and the
	// node must stay healthy. The elements still count toward
	// Retry-After.
	cl := newClock()
	ctrl := newTestController(cl, testCfg)
	ctrl.ObserveDrain(1000, time.Second) // 1000 elements/s
	ctrl.EnqueueJob(5000)
	for i := 0; i <= testCfg.ShedIntervals; i++ {
		cl.advance(testCfg.Interval)
		if ok, _ := ctrl.admit(cl.now()); !ok {
			t.Fatalf("interval %d: a request was shed behind a job", i)
		}
	}
	if st := ctrl.State(); st != Healthy {
		t.Fatalf("after %d intervals with a job running: %v, want healthy", testCfg.ShedIntervals+1, st)
	}
	if ra := ctrl.RetryAfter(); ra != 5*time.Second {
		t.Fatalf("Retry-After = %v, want the job's 5s drain", ra)
	}
	ctrl.DoneJob(5000)
	if n := ctrl.Backlog(); n != 0 {
		t.Fatalf("backlog after the job = %d, want 0", n)
	}
}

func TestStraddlingJobIsNotStalled(t *testing.T) {
	// A lone job submitted 1ms before an interval boundary and dequeued
	// 1ms after it waited 2ms against a 1s target. The interval it was
	// submitted in saw no dequeue, but no work stood through all of it,
	// so it must not count as stalled.
	cl := newClock()
	cfg := Config{Target: time.Second, Interval: 100 * time.Millisecond}
	ctrl := newTestController(cl, cfg)
	cl.advance(cfg.Interval - time.Millisecond)
	if ok, _ := ctrl.admit(cl.now()); !ok {
		t.Fatal("admit refused on an idle controller")
	}
	ctrl.enqueue(4096, cl.now())
	cl.advance(2 * time.Millisecond)
	ctrl.observeSojourn(2*time.Millisecond, cl.now())
	ctrl.Done(4096)
	if st := ctrl.State(); st != Healthy {
		t.Fatalf("after a 2ms sojourn straddling a boundary: %v, want healthy", st)
	}
	cl.advance(cfg.Interval)
	if snap := ctrl.snapshotAt(cl.now()); snap.State != "healthy" || snap.TransitionsDegraded != 0 {
		t.Fatalf("after the job's interval settled: %+v, want healthy with no transition", snap)
	}
}

func TestRoundLongerThanIntervalIsBad(t *testing.T) {
	// A job dequeues at once, then its round holds the pool for longer
	// than an interval while the queue is empty. Its elements are still
	// admitted but unfinished, so the interval with no dequeue counts as
	// stalled: the verdict stays bad on purpose. Work arriving now waits
	// out the rest of that round, and at a 1ms target a round longer than
	// a whole interval means those waits exceed the target; without this
	// verdict the controller would hear of it only at the next dequeue,
	// an interval late.
	cl := newClock()
	ctrl := newTestController(cl, testCfg)
	ctrl.enqueue(1<<20, cl.now())
	cl.advance(time.Millisecond / 10)
	ctrl.observeSojourn(time.Millisecond/10, cl.now())
	cl.advance(testCfg.Interval + testCfg.Interval/2) // the round runs on
	ctrl.admit(cl.now())
	if st := ctrl.State(); st != Healthy {
		t.Fatalf("after the dequeue's own interval: %v, want healthy", st)
	}
	cl.advance(testCfg.Interval)
	ctrl.admit(cl.now())
	if st := ctrl.State(); st != Degraded {
		t.Fatalf("after a whole interval inside one round: %v, want degraded", st)
	}
	ctrl.Done(1 << 20)
}

func TestLongIdleGapFastForwards(t *testing.T) {
	// A year-long gap is ~3e9 intervals at the test cadence; without the
	// fast-forward the first admit after the gap would iterate them one
	// at a time under the lock (and this test would time out).
	cl := newClock()
	ctrl := newTestController(cl, testCfg)
	for i := 0; i < 3; i++ {
		badInterval(ctrl, cl)
	}
	if st := ctrl.State(); st != Shedding {
		t.Fatalf("setup: %v, want shedding", st)
	}
	cl.advance(365 * 24 * time.Hour)
	if ok, _ := ctrl.admit(cl.now()); !ok {
		t.Fatal("admit refused after a long idle gap")
	}
	if st := ctrl.State(); st != Healthy {
		t.Fatalf("after long idle gap: %v, want healthy", st)
	}
	// Same gap with a standing backlog: every empty interval is bad, the
	// fast-forward must still apply, and the state must escalate.
	ctrl.Enqueue(1000)
	cl.advance(365 * 24 * time.Hour)
	if ok, ra := ctrl.admit(cl.now()); ok || ra < ctrl.cfg.MinRetryAfter {
		t.Fatalf("stalled-gap admit = (%v, %v), want refusal with Retry-After >= min", ok, ra)
	}
	if st := ctrl.State(); st != Shedding {
		t.Fatalf("after long stalled gap: %v, want shedding", st)
	}
}

func TestRetryAfterUsesDrainRate(t *testing.T) {
	cl := newClock()
	ctrl := newTestController(cl, testCfg)
	// No drain sample yet: the clamp floor applies.
	if ra := ctrl.RetryAfter(); ra != ctrl.cfg.MinRetryAfter {
		t.Fatalf("no-sample RetryAfter = %v, want min %v", ra, ctrl.cfg.MinRetryAfter)
	}
	// 10k elements/second measured, 50k queued => 5 seconds.
	ctrl.ObserveDrain(10_000, time.Second)
	ctrl.Enqueue(50_000)
	if ra := ctrl.RetryAfter(); ra != 5*time.Second {
		t.Fatalf("RetryAfter = %v, want 5s", ra)
	}
	if s := ctrl.RetryAfterSeconds(); s != 5 {
		t.Fatalf("RetryAfterSeconds = %d, want 5", s)
	}
	// A huge backlog clamps at the max.
	ctrl.Enqueue(100_000_000)
	if ra := ctrl.RetryAfter(); ra != ctrl.cfg.MaxRetryAfter {
		t.Fatalf("clamped RetryAfter = %v, want max %v", ra, ctrl.cfg.MaxRetryAfter)
	}
}

func TestDrainRateEWMA(t *testing.T) {
	ctrl := New(Config{DrainAlpha: 0.5})
	ctrl.ObserveDrain(1000, time.Second) // seeds at 1000/s
	ctrl.ObserveDrain(3000, time.Second) // EWMA: 1000 + 0.5*(3000-1000) = 2000
	if r := ctrl.SnapshotNow().DrainElemsPerSec; r != 2000 {
		t.Fatalf("EWMA rate = %v, want 2000", r)
	}
	// Zero-element and zero-duration samples are ignored.
	ctrl.ObserveDrain(0, time.Second)
	ctrl.ObserveDrain(100, 0)
	if r := ctrl.SnapshotNow().DrainElemsPerSec; r != 2000 {
		t.Fatalf("rate after degenerate samples = %v, want 2000", r)
	}
}

func TestSnapshotReportsSignal(t *testing.T) {
	cl := newClock()
	ctrl := newTestController(cl, testCfg)
	ctrl.observeSojourn(3*time.Millisecond, cl.now())
	ctrl.observeSojourn(2*time.Millisecond, cl.now())
	cl.advance(testCfg.Interval)
	snap := ctrl.snapshotAt(cl.now())
	if snap.SojournMinMS != 2 {
		t.Fatalf("sojourn_min_ms = %v, want 2 (the interval minimum)", snap.SojournMinMS)
	}
	if snap.State != "degraded" || snap.StateCode != 1 {
		t.Fatalf("state = %q/%d, want degraded/1", snap.State, snap.StateCode)
	}
	if snap.TargetMS != 1 || snap.IntervalMS != 10 {
		t.Fatalf("config echo %v/%v, want 1/10", snap.TargetMS, snap.IntervalMS)
	}
}

func TestConcurrentUse(t *testing.T) {
	// Shake the controller from many goroutines under -race; the final
	// backlog must balance.
	ctrl := New(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ctrl.Enqueue(10)
				ctrl.ObserveSojourn(time.Duration(i) * time.Microsecond)
				ctrl.ObserveDrain(10, time.Millisecond)
				ctrl.Admit()
				ctrl.SnapshotNow()
				ctrl.Done(10)
			}
		}()
	}
	wg.Wait()
	if b := ctrl.Backlog(); b != 0 {
		t.Fatalf("backlog = %d after balanced enqueue/done, want 0", b)
	}
}

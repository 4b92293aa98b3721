package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

type workload interface{ run(r *run) error }

// The fixed rate and latency limit of each RPC workload were taken once
// from the seed code on a 2-vCPU VM: the rate at about half the
// closed-loop capacity, the limit at about twice the tail quantile at
// that rate while other guests loaded the host. They are constants so
// that every run, on every commit, offers the same load and judges it
// by the same limit. The tail quantile sits inside one kind of request's
// latencies, not on the edge between two, where a small shift in mix
// moves it far: p98 lies among rpc-small-json's 1-in-20 large requests
// (p95 would be their edge; p99 of one window's 600 samples has six
// beyond it), and p90 among rpc-large-binary's sorts, the slowest third.
var workloads = map[string]workload{
	"rpc-small-json": &rpcWorkload{
		gen:     func(seed uint64, _ bool) []*request { return genSmall(seed) },
		rate:    450,
		limitMS: 50,
		tailQ:   0.98,
		traceN:  1000,
		layers:  smallLayers,
	},
	"rpc-large-binary": &rpcWorkload{
		gen:     genLarge,
		rate:    24,
		limitMS: 100,
		tailQ:   0.90,
		traceN:  240,
		layers:  largeLayers,
	},
	"jobs-extsort": jobsWorkload{},
}

const (
	setups     = 3    // daemon launches before a run measures; setupClock.probe adds more during it
	minUsed    = 4    // measurement windows a run counts at least
	quietSteal = 0.02 // steal share up to which a window or cycle counts as quiet
)

// Rates probed for slo_rps above and below the fixed rate, as multiples
// of it.
var (
	ladderUp   = []float64{1.4, 1.8, 2.2, 2.6, 3.0, 4.0}
	ladderDown = []float64{0.8, 0.6, 0.4, 0.2}
)

// window is one closed-loop phase followed by one fixed-rate phase.
type window struct {
	closed, fixed *phase
	steal         float64 // hypervisor steal share while the window ran
}

// leastStolen returns the n windows with the least steal, in run order.
func leastStolen(all []window, n int) []window {
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return all[idx[a]].steal < all[idx[b]].steal })
	idx = idx[:min(n, len(idx))]
	sort.Ints(idx)
	out := make([]window, len(idx))
	for i, j := range idx {
		out[i] = all[j]
	}
	return out
}

// usedWindows is how many of n windows a run counts: the least stolen
// half, and at least minUsed.
func usedWindows(n int) int { return max(minUsed, n/2) }

// stolen reports whether a window the run would count had more than
// quietSteal of the CPU time stolen.
func stolen(all []window) bool {
	for _, win := range leastStolen(all, usedWindows(len(all))) {
		if win.steal > quietSteal {
			return true
		}
	}
	return false
}

func (r *run) noteWindows(all, used []window, q float64) {
	for i, win := range all {
		lat := win.fixed.latenciesMS()
		r.note("window %d: steal %.1f%% eps %.0f p50 %.3f ms p%g %.3f ms", i, 100*win.steal, win.closed.elemsPerSec(),
			median(lat), 100*q, quantile(lat, q))
	}
	r.note("%d of %d windows used (the least stolen)", len(used), len(all))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// noteKinds prints the fixed-rate latency quantiles of each request kind.
func (r *run) noteKinds(pool []*request, phases []*phase) {
	byKind := map[string][]float64{}
	for _, ph := range phases {
		lat := ph.latenciesMS()
		for i, s := range ph.samples {
			byKind[pool[s.pool].kind] = append(byKind[pool[s.pool].kind], lat[i])
		}
	}
	for _, k := range []string{"merge", "sort", "mergek", "setops", "select"} {
		if v := byKind[k]; len(v) > 0 {
			r.note("fixed %-6s n %5d p50 %8.3f p90 %8.3f p99 %8.3f max %8.3f ms", k, len(v),
				quantile(v, 0.5), quantile(v, 0.9), quantile(v, 0.99), quantile(v, 1))
		}
	}
}

type rpcWorkload struct {
	gen     func(seed uint64, keepLists bool) []*request
	rate    float64 // fixed open-loop rate, req/s
	limitMS float64 // latency limit on the tail percentile
	tailQ   float64 // tail_ms is this quantile of the fixed-rate latencies
	traceN  int     // arrivals per pass of the traced run
	layers  func(r *run, pool []*request, srv serverCounts)
}

func (w *rpcWorkload) run(r *run) error {
	if r.trace {
		return w.traced(r)
	}
	pool := w.gen(r.seed, false)
	clock := &setupClock{bin: r.bin, work: r.work}
	d, err := clock.start(setups)
	if err != nil {
		return err
	}
	defer d.stop()
	if err := r.noteDaemon(d); err != nil {
		return err
	}
	c := newClient(d.base, r.conns)
	defer c.close()
	S := r.seconds

	// Warm-up: lazy set-up in the daemon (pooled arenas, connection
	// state) finishes before anything is timed. Its answers are still
	// checked.
	r.check("warm-up", c.closedLoop(pool, 0, seconds(0.05*S), r.conns))

	// Short closed-loop and fixed-rate windows alternate for half the
	// run; the half of them (at least minUsed) during which the
	// hypervisor stole the least CPU time count. Bursts of load from
	// other guests on the host last seconds, so short windows let the run
	// measure between them, and while a window it would count is not
	// quiet the run goes on for up to another 0.3 of its seconds. Every
	// window's answers are checked, counted or not. The run is refused
	// when the generator, not the daemon, fell behind: when its own
	// sending delay reaches a quarter of the latency limit at p99, the
	// tail it would report is its own. Each fixed-rate window replays the
	// pool a whole number of times, so every window, whichever are
	// counted, offers the same requests.
	var all []window
	nFixed := wholeCycles(max((w.minSamples()+minUsed-1)/minUsed, int(w.rate*0.03*S)), len(pool))
	budget, limit := time.Now().Add(seconds(0.5*S)), time.Now().Add(seconds(0.8*S))
	for len(all) < 2*minUsed || time.Now().Before(budget) || (stolen(all) && time.Now().Before(limit)) {
		i := len(all)
		before := readCPU()
		cl := c.closedLoop(pool, i*len(pool)/7, seconds(0.025*S), r.conns)
		r.check(fmt.Sprintf("closed-%d", i), cl)
		fx := c.openLoop(pool, i*nFixed, nFixed, w.rate, r.conns, nil)
		r.check(fmt.Sprintf("fixed-%d", i), fx)
		all = append(all, window{closed: cl, fixed: fx, steal: stealShare(before, readCPU())})
		if err := clock.probe(); err != nil {
			return err
		}
	}
	var late []float64
	for _, win := range all {
		for _, s := range win.fixed.samples {
			late = append(late, ms(s.genLate))
		}
	}
	if p99 := quantile(late, 0.99); p99 > w.limitMS/4 {
		return fmt.Errorf("run invalid: generator lateness p99 %.3f ms exceeds a quarter of the %.0f ms limit", p99, w.limitMS)
	}
	// The record file keeps every window's raw figures.
	var raw []map[string]any
	for _, win := range all {
		raw = append(raw, map[string]any{"steal": win.steal, "closed_eps": win.closed.elemsPerSec(),
			"fixed_ms": win.fixed.latenciesMS()})
	}
	r.extra["windows"] = raw
	used := leastStolen(all, usedWindows(len(all)))
	// Throughput and p50 pool the windows used; windowTail says how the
	// tail does.
	var lat, rates []float64
	var fixed []*phase
	elems, busy := 0, 0.0
	for _, win := range used {
		for _, s := range win.closed.samples {
			elems += s.elems
		}
		busy += win.closed.end.Sub(win.closed.start).Seconds()
		lat = append(lat, win.fixed.latenciesMS()...)
		rates = append(rates, win.fixed.completedPerSec())
		fixed = append(fixed, win.fixed)
	}
	eps := float64(elems) / busy
	tail, perWindow, err := w.windowTail(fixed, lat)
	if err != nil {
		return err
	}
	pass := true
	for _, fx := range fixed {
		pass = pass && w.passes(fx, tail)
	}
	r.noteKinds(pool, fixed)
	r.noteWindows(all, used, w.tailQ)
	slo := w.sloSearch(r, c, pool, pass, median(rates), tail, len(all)*nFixed)

	rss, err := d.peakRSSMiB()
	if err != nil {
		return err
	}
	ok := 0
	for _, win := range all {
		for _, ph := range []*phase{win.closed, win.fixed} {
			o, f, _ := ph.counts()
			ok += o
			r.res.Attempted += o + f
			r.res.Failed += f
		}
	}
	r.set("setup_s", "s", clock.median())
	r.set("throughput_eps", "elements/s", eps)
	r.set("p50_ms", "ms", median(lat))
	r.set("tail_ms", "ms", tail)
	r.set("slo_rps", "req/s", slo)
	r.set("success_ratio", "ratio", float64(ok)/float64(r.res.Attempted))
	r.set("peak_rss_mb", "MiB", rss)
	how := "of the pooled samples"
	if perWindow {
		how = "the median of the windows' own"
	}
	r.note("fixed rate %.0f req/s, limit p%g <= %.0f ms; p50_ms and tail_ms (p%g, %s) are over %d samples in %d windows",
		w.rate, 100*w.tailQ, w.limitMS, 100*w.tailQ, how, len(lat), len(fixed))
	r.note("error_ratio %.6f (%d failed of %d attempted)", float64(r.res.Failed)/float64(r.res.Attempted),
		r.res.Failed, r.res.Attempted)
	return nil
}

// windowTail returns the tail quantile of the counted windows'
// fixed-rate latencies, lat being all of them. When every window holds
// ten samples beyond its own tail quantile, it is the median of the
// windows' tails, so that one counted window that a burst of outside
// load slowed does not move it; otherwise it is the quantile of the
// pooled samples.
func (w *rpcWorkload) windowTail(fixed []*phase, lat []float64) (tail float64, perWindow bool, err error) {
	var tails []float64
	for _, ph := range fixed {
		t, err := tailQuantile(ph.latenciesMS(), w.tailQ)
		if err != nil {
			t, err := tailQuantile(lat, w.tailQ)
			return t, false, err
		}
		tails = append(tails, t)
	}
	return median(tails), true, nil
}

// minSamples is the smallest sample whose tail quantile has at least
// ten samples beyond it, with a tenth to spare.
func (w *rpcWorkload) minSamples() int { return int(math.Ceil(11 / (1 - w.tailQ))) }

// wholeCycles rounds n up to a whole number of passes over a pool of
// size m.
func wholeCycles(n, m int) int { return (n + m - 1) / m * m }

// sloSearch finds the highest offered rate that meets the service
// level. From the fixed rate it probes the ladder's rates upward until
// one fails, or, when the fixed rate itself fails, downward until one
// passes; then it halves the gap between the highest passing and the
// lowest failing rate twice. It returns the rate at which the tail
// reaches the limit, interpolated linearly between those two, so that
// the result moves continuously with the daemon's speed. A passing rate
// counts as the rate its requests actually completed at. It returns the
// top rate when every rate passes and 0 when none does.
func (w *rpcWorkload) sloSearch(r *run, c *client, pool []*request, fixedPass bool, fixedRate, fixedTail float64, first int) float64 {
	// A failing step is run once more and counts as passing if either
	// run passes: near capacity one burst of outside load can fail a
	// step the daemon sustains.
	probe := func(rate float64) (achieved float64, pass bool, t float64) {
		n := max(w.minSamples(), int(rate*0.05*r.seconds))
		best := math.Inf(1)
		for attempt := 0; ; attempt++ {
			before := readCPU()
			ph := c.openLoop(pool, first, n, rate, r.conns, w.abortWhenDecided(n))
			first += n
			steal := stealShare(before, readCPU())
			r.check(fmt.Sprintf("slo@%.0f", rate), ph)
			// An aborted step's tail is read from the samples it sent;
			// more of them than the quantile allows already missed the
			// limit.
			t = quantile(ph.latenciesMS(), w.tailQ)
			pass = w.passes(ph, t)
			r.note("slo step %.1f req/s: sent %d p%g %.3f ms backlog %d aborted %v steal %.1f%% pass %v",
				rate, len(ph.samples), 100*w.tailQ, t, ph.backlog, ph.aborted, 100*steal, pass)
			if pass || attempt == 1 {
				return ph.completedPerSec(), pass, min(t, best)
			}
			best = t
		}
	}
	// lo passes and hi fails; loAch is the rate lo's requests completed at.
	var lo, loAch, loTail, hi, hiTail float64
	if fixedPass {
		lo, loAch, loTail = w.rate, fixedRate, fixedTail
		for _, m := range ladderUp {
			rate := w.rate * m
			ach, pass, t := probe(rate)
			if !pass {
				hi, hiTail = rate, t
				break
			}
			lo, loAch, loTail = rate, ach, t
		}
		if hi == 0 {
			return loAch
		}
	} else {
		hi, hiTail = w.rate, fixedTail
		for _, m := range ladderDown {
			rate := w.rate * m
			ach, pass, t := probe(rate)
			if pass {
				lo, loAch, loTail = rate, ach, t
				break
			}
			hi, hiTail = rate, t
		}
		if lo == 0 {
			return 0
		}
	}
	for range 2 {
		mid := (lo + hi) / 2
		if ach, pass, t := probe(mid); pass {
			lo, loAch, loTail = mid, ach, t
		} else {
			hi, hiTail = mid, t
		}
	}
	return w.interpolate(loAch, loTail, hi, hiTail)
}

// interpolate returns the rate between a passing and a failing one at
// which the tail, taken as linear in the rate, reaches the limit. A
// failing rate whose tail is within the limit or infinite (it failed on
// errors or backlog) leaves the passing rate.
func (w *rpcWorkload) interpolate(passRate, passTail, failRate, failTail float64) float64 {
	if failTail <= w.limitMS || math.IsInf(failTail, 1) {
		return passRate
	}
	frac := min(1, max(0, (w.limitMS-passTail)/(failTail-passTail)))
	return passRate + frac*(failRate-passRate)
}

// passes reports whether an open-loop phase met the service level: no
// failure, the tail within the limit and no growing backlog.
func (w *rpcWorkload) passes(ph *phase, tail float64) bool {
	_, failed, _ := ph.counts()
	return !ph.aborted && failed == 0 && tail <= w.limitMS && ph.backlog <= w.backlogSlack()
}

// backlogSlack is how many arrivals may still wait for a connection
// when the schedule ends before the backlog counts as growing: as many
// as arrive in half the latency limit, and at least four.
func (w *rpcWorkload) backlogSlack() int { return max(4, int(w.rate*w.limitMS/2000)) }

// abortWhenDecided stops an SLO step as soon as more arrivals failed or
// missed the limit than the tail quantile allows: the step has failed,
// and running it further only overloads the daemon.
func (w *rpcWorkload) abortWhenDecided(n int) func(*sample) bool {
	allowed := int64(n - int(math.Ceil(w.tailQ*float64(n))))
	var bad atomic.Int64
	return func(s *sample) bool {
		if !s.ok || ms(s.latency()) > w.limitMS {
			return bad.Add(1) > allowed
		}
		return false
	}
}

// check verifies a phase: every 200 must carry the expected bytes, and
// every answered request's stages must add up to its latency.
func (r *run) check(name string, ph *phase) {
	ok, failed, mismatched := ph.counts()
	statuses := map[string]int{}
	for i := range ph.samples {
		s := &ph.samples[i]
		switch {
		case s.err != nil:
			statuses["error"]++
		case !s.ok:
			statuses[fmt.Sprint(s.status)]++
		default:
			if err := checkAccounting(account(s)); err != nil {
				r.fail("%s: stage accounting: %v", name, err)
			}
		}
	}
	if mismatched > 0 {
		r.fail("%s: %d responses with status 200 differ from the reference", name, mismatched)
	}
	late := make([]float64, 0, len(ph.samples))
	for _, s := range ph.samples {
		late = append(late, ms(s.genLate))
	}
	var keys []string
	for k, v := range statuses {
		keys = append(keys, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(keys)
	r.note("phase %s: sent %d ok %d failed %d [%s] elapsed %.3f s backlog %d lateness p50 %.3f p99 %.3f max %.3f ms",
		name, len(ph.samples), ok, failed, strings.Join(keys, " "), ph.end.Sub(ph.start).Seconds(), ph.backlog,
		quantile0(late, 0.5), quantile0(late, 0.99), quantile0(late, 1))
}

func quantile0(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return quantile(v, q)
}

// noteDaemon records the measured daemon's flags, worker count and
// fsync policy for the machine-shape record.
func (r *run) noteDaemon(d *daemon) error {
	m, err := d.metrics()
	if err != nil {
		return err
	}
	r.daemon, r.workers = d.args, m.Pool.Workers
	if m.Jobs != nil {
		r.fsync = m.Jobs.Durability.FsyncPolicy
	}
	return nil
}

// serverCounts is the change in the daemon's counters over the traced
// pass.
type serverCounts struct {
	workers            int
	batchRounds, pairs uint64
	runRounds          uint64
	shed               uint64
	imbalanceMax       float64
	transitions        uint64
}

func diffCounts(a, b metricsDoc) serverCounts {
	tr := func(m metricsDoc) uint64 { return m.Overload.Degraded + m.Overload.Shedding + m.Overload.Recovered }
	return serverCounts{
		workers:      b.Pool.Workers,
		batchRounds:  b.Pool.BatchRounds - a.Pool.BatchRounds,
		pairs:        b.Pool.BatchPairs - a.Pool.BatchPairs,
		runRounds:    b.Pool.RunRounds - a.Pool.RunRounds,
		shed:         b.Queue.Shed - a.Queue.Shed + b.Overload.Shed - a.Overload.Shed,
		imbalanceMax: b.Pool.ImbalanceMax,
		transitions:  tr(b) - tr(a),
	}
}

// traced replays traceN arrivals at the fixed rate twice, first without
// and then with span recording, reads the daemon's stages and counters
// from the traced pass, then times the layers in process on the same
// inputs.
func (w *rpcWorkload) traced(r *run) error {
	for _, m := range perLayer {
		r.set(m.Name, m.Unit, 0)
	}
	pool := w.gen(r.seed, true)
	d, _, err := startDaemon(r.bin, r.work, nil)
	if err != nil {
		return err
	}
	defer d.stop()
	if err := r.noteDaemon(d); err != nil {
		return err
	}
	c := newClient(d.base, r.conns)
	defer c.close()
	r.check("warm-up", c.closedLoop(pool, 0, 500*time.Millisecond, r.conns))
	plain := c.openLoop(pool, 0, w.traceN, w.rate, r.conns, nil)
	r.check("untraced", plain)
	m0, err := d.metrics()
	if err != nil {
		return err
	}
	traced := c.openLoop(pool, 0, w.traceN, w.rate, r.conns, func(s *sample) bool {
		r.traceSample(pool[s.pool].kind, s)
		return false
	})
	r.check("traced", traced)
	m1, err := d.metrics()
	if err != nil {
		return err
	}
	d.stop()
	srv := diffCounts(m0, m1)

	var acc [6][]float64
	var part, merge, late []float64
	for i := range traced.samples {
		s := &traced.samples[i]
		late = append(late, ms(s.genLate))
		if !s.ok {
			continue
		}
		a := account(s)
		for j, v := range []float64{a.decode, a.queueWait, a.coalesceWait, a.round, a.write, a.other} {
			acc[j] = append(acc[j], v)
		}
		part = append(part, s.st["partition"])
		merge = append(merge, s.st["merge"])
	}
	for j, name := range []string{"decode", "queue_wait", "coalesce_wait", "round", "write", "other"} {
		r.setTiming("server."+name+"_ms", "ms", acc[j])
	}
	r.setTiming("server.partition_worker_ms", "ms", part)
	r.setTiming("server.merge_worker_ms", "ms", merge)
	r.setTiming("loadgen.lateness_ms", "ms", late)
	r.set("server.rounds_batch", "count", float64(srv.batchRounds))
	r.set("server.rounds_run", "count", float64(srv.runRounds))
	if srv.batchRounds > 0 {
		r.set("server.pairs_per_batch_round", "pairs", float64(srv.pairs)/float64(srv.batchRounds))
	}
	r.set("server.shed_total", "count", float64(srv.shed))
	r.set("server.imbalance_max", "ratio", srv.imbalanceMax)
	r.set("overload.transitions", "count", float64(srv.transitions))
	pl, tl := plain.latenciesMS(), traced.latenciesMS()
	pt, _ := tenBeyond(pl)
	tt, pct := tenBeyond(tl)
	r.set("trace.overhead_p50_ms", "ms", median(tl)-median(pl))
	r.set("trace.overhead_tail_ms", "ms", tt-pt)
	r.note("traced pass: %d arrivals at %.0f req/s; per-layer tails are p%.1f (ten samples beyond)", w.traceN, w.rate, pct)

	w.layers(r, pool, srv)
	ok1, f1, _ := plain.counts()
	ok2, f2, _ := traced.counts()
	r.res.Attempted, r.res.Failed = ok1+f1+ok2+f2, f1+f2
	r.noteLayers()
	return nil
}

// traceSample records a finished request as a root span with the
// daemon's stages as children, laid back to back so that they end at
// the first response byte, then the body transfer.
func (r *run) traceSample(kind string, s *sample) {
	req := fmt.Sprintf("req-%d-%d", s.pool, s.due.UnixNano())
	root := r.tracer.add(0, req, "client."+kind, s.due, s.done)
	if !s.ok {
		return
	}
	a := account(s)
	at := s.headers
	stagesRev := []struct {
		name string
		ms   float64
	}{{"server.round", a.round}, {"server.coalesce_wait", a.coalesceWait}, {"server.queue_wait", a.queueWait}, {"server.decode", a.decode}}
	for _, st := range stagesRev {
		start := at.Add(-time.Duration(st.ms * float64(time.Millisecond)))
		r.tracer.add(root, req, st.name, start, at)
		at = start
	}
	r.tracer.add(root, req, "server.write", s.headers, s.done)
}

// setTiming reports a .p50 and .tail pair. The tail is the value with
// ten samples beyond it; a sample too small for that to lie above the
// median reports its maximum instead.
func (r *run) setTiming(name, unit string, v []float64) {
	if len(v) == 0 {
		return
	}
	r.set(name+".p50", unit, median(v))
	tail := quantile(v, 1)
	if len(v) > 20 {
		tail, _ = tenBeyond(v)
	}
	r.set(name+".tail", unit, tail)
}

// noteLayers prints each per-layer metric with the workloads its layer
// is exercised on and the end-to-end metrics it should move.
func (r *run) noteLayers() {
	for _, m := range perLayer {
		v := r.res.Metrics[m.Name]
		on := "exercised here"
		if !strings.Contains(m.On, r.workload) {
			on = "not exercised here (on " + m.On + ")"
		}
		r.note("layer %-36s %14.4f %-10s moves %-24s %s", m.Name, v.Value, m.Unit, m.Moves, on)
	}
}

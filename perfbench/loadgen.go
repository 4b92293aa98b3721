package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptrace"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator. At most conns connections (never more than nproc)
// carry the traffic. The open loop times every request from the moment
// it was due, never drops an arrival, and records how late the
// generator itself was in sending it, apart from time spent waiting for
// a busy connection. Every sample is kept, so percentiles are exact
// order statistics.

// stages holds one response's Server-Timing entries, in milliseconds.
type stages map[string]float64

// sample is one request's outcome and timeline.
type sample struct {
	pool     int // index of the request in its pool
	due      time.Time
	send     time.Time
	headers  time.Time // first response byte
	done     time.Time // last response byte
	genLate  time.Duration
	status   int
	ok       bool // 200 with the expected bytes
	mismatch bool // 200 with other bytes
	elems    int  // verified output elements (0 unless ok)
	st       stages
	err      error
}

func (s *sample) sent() bool { return !s.send.IsZero() }

// latency is the client-observed time from due (open loop) or send
// (closed loop) to the last response byte.
func (s *sample) latency() time.Duration {
	if s.due.IsZero() {
		return s.done.Sub(s.send)
	}
	return s.done.Sub(s.due)
}

type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends rq and checks the answer byte for byte against rq.want. buf
// is the caller's reusable response buffer.
func (c *client) do(rq *request, buf *bytes.Buffer, s *sample) {
	req, err := http.NewRequest(http.MethodPost, c.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		s.err = err
		return
	}
	if rq.binary {
		req.Header.Set("Content-Type", frameType)
		req.Header.Set("Accept", frameType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	// The first response byte is stamped as an offset from send, so that
	// the stage arithmetic stays on the monotonic clock.
	var headers atomic.Int64
	trace := &httptrace.ClientTrace{GotFirstResponseByte: func() { headers.Store(int64(time.Since(s.send))) }}
	req = req.WithContext(httptrace.WithClientTrace(context.Background(), trace))
	s.send = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.done, s.err = time.Now(), err
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.headers = s.send.Add(time.Duration(headers.Load()))
	s.status = resp.StatusCode
	if err != nil {
		s.err = fmt.Errorf("read body: %w", err)
		return
	}
	s.st = parseServerTiming(resp.Header.Get("Server-Timing"))
	if resp.StatusCode == http.StatusOK {
		if bytes.Equal(buf.Bytes(), rq.want) {
			s.ok, s.elems = true, rq.elems
		} else {
			s.mismatch = true
		}
	}
}

// parseServerTiming reads "name;dur=<ms>, ..." entries.
func parseServerTiming(h string) stages {
	st := stages{}
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(dur, 64); err == nil {
			st[name] = v
		}
	}
	return st
}

// phase is the outcome of one open- or closed-loop run.
type phase struct {
	samples []sample // only requests actually sent
	start   time.Time
	end     time.Time // last completion
	backlog int       // open loop: arrivals due by the schedule's end but not yet sent then
	aborted bool      // open loop: stopped early because the outcome was already decided
}

// openLoop offers n arrivals at a constant rate, taking requests from
// pool cyclically starting at first. An arrival whose connection is
// busy waits for one and is timed from its due time. abort, when
// non-nil, is called after each completion and stops new sends once it
// returns true.
func (c *client) openLoop(pool []*request, first, n int, rate float64, conns int, abort func(*sample) bool) *phase {
	interval := float64(time.Second) / rate
	samples := make([]sample, n)
	t0 := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &samples[i]
				s.pool = (first + i) % len(pool)
				s.due = t0.Add(time.Duration(float64(i) * interval))
				free := time.Now()
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
				}
				c.do(pool[s.pool], &buf, s)
				ready := s.due
				if free.After(ready) {
					ready = free
				}
				s.genLate = s.send.Sub(ready)
				if abort != nil && abort(s) {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	ph := &phase{start: t0, aborted: stop.Load()}
	schedEnd := t0.Add(time.Duration(float64(n) * interval))
	for i := range samples {
		s := &samples[i]
		if !s.sent() {
			continue
		}
		ph.samples = append(ph.samples, *s)
		if s.done.After(ph.end) {
			ph.end = s.done
		}
		if s.send.After(schedEnd) {
			ph.backlog++
		}
	}
	return ph
}

// closedLoop keeps conns requests in flight until dur has passed, each
// connection sending its next request when the previous one completes.
func (c *client) closedLoop(pool []*request, first int, dur time.Duration, conns int) *phase {
	var next atomic.Int64
	var mu sync.Mutex
	ph := &phase{start: time.Now()}
	deadline := ph.start.Add(dur)
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var local []sample
			for time.Now().Before(deadline) {
				var s sample
				s.pool = (first + int(next.Add(1)-1)) % len(pool)
				c.do(pool[s.pool], &buf, &s)
				local = append(local, s)
			}
			mu.Lock()
			ph.samples = append(ph.samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, s := range ph.samples {
		if s.done.After(ph.end) {
			ph.end = s.done
		}
	}
	return ph
}

// counts tallies a phase's outcomes.
func (ph *phase) counts() (ok, failed, mismatched int) {
	for _, s := range ph.samples {
		switch {
		case s.ok:
			ok++
		case s.mismatch:
			mismatched++
			failed++
		default:
			failed++
		}
	}
	return
}

// elemsPerSec is verified output elements per second of the phase.
func (ph *phase) elemsPerSec() float64 {
	n := 0
	for _, s := range ph.samples {
		n += s.elems
	}
	return float64(n) / ph.end.Sub(ph.start).Seconds()
}

// completedPerSec is successful requests per second of the phase.
func (ph *phase) completedPerSec() float64 {
	ok, _, _ := ph.counts()
	return float64(ok) / ph.end.Sub(ph.start).Seconds()
}

// latenciesMS returns every sample's latency in milliseconds; a failed
// request counts as missing any limit, so it is given +Inf.
func (ph *phase) latenciesMS() []float64 {
	out := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		if s.ok {
			out[i] = ms(s.latency())
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of v (0 < q <= 1).
func quantile(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// tailQuantile returns the q-quantile and fails when fewer than ten
// samples lie beyond it: a tail read from fewer is not a tail.
func tailQuantile(v []float64, q float64) (float64, error) {
	rank := int(math.Ceil(q * float64(len(v))))
	if len(v)-rank < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it; need at least 10", 100*q, len(v), len(v)-rank)
	}
	return quantile(v, q), nil
}

// tenBeyond is the value with exactly ten samples beyond it (the
// highest percentile the sample supports) and that percentile.
func tenBeyond(v []float64) (value, pct float64) {
	if len(v) <= 10 {
		return math.NaN(), 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[len(s)-11], 100 * float64(len(s)-10) / float64(len(s))
}

// accounting splits an RPC sample into disjoint stages that sum to its
// client-observed latency. decode, queue_wait and coalesce_wait are the
// daemon's wall-time spans; round is execute minus the two waits it
// contains; write is the client-observed body transfer after the first
// response byte; other is the remainder (client queueing for a
// connection, send, network and HTTP framing). partition and merge are
// worker time summed across workers inside round, so they are not part
// of the sum.
type accounting struct {
	decode, queueWait, coalesceWait, round, write, other, total float64
}

func account(s *sample) accounting {
	a := accounting{
		decode:       s.st["decode"],
		queueWait:    s.st["queue_wait"],
		coalesceWait: s.st["coalesce_wait"],
		write:        ms(s.done.Sub(s.headers)),
		total:        ms(s.latency()),
	}
	a.round = s.st["execute"] - a.queueWait - a.coalesceWait
	a.other = a.total - a.decode - a.queueWait - a.coalesceWait - a.round - a.write
	return a
}

// checkAccounting asserts that a sample's stages are non-negative (up
// to the daemon's microsecond rounding of Server-Timing) and sum to the
// client-observed latency.
func checkAccounting(a accounting) error {
	const roundingMS = 0.002
	for name, v := range map[string]float64{"decode": a.decode, "queue_wait": a.queueWait,
		"coalesce_wait": a.coalesceWait, "round": a.round, "write": a.write, "other": a.other} {
		if v < -roundingMS {
			return fmt.Errorf("stage %s is %.4f ms", name, v)
		}
	}
	sum := a.decode + a.queueWait + a.coalesceWait + a.round + a.write + a.other
	if math.Abs(sum-a.total) > 1e-9*max(1, a.total) {
		return fmt.Errorf("stages sum to %.6f ms, latency is %.6f ms", sum, a.total)
	}
	return nil
}

// Per-request tracing: every request gets an ID and a Trace that
// collects one Span per lifecycle stage it passes through. Spans are
// surfaced three ways — aggregated into the per-stage latency
// histograms on /metrics and /metrics/prom, echoed to the client in a
// Server-Timing response header (so load generators can attribute
// latency without server access), and written to the structured access
// log when Config.AccessLog is on. The request ID is echoed in the
// X-Request-Id response header and stamped on every log line the
// request produces, including recovered-panic stacks.
package server

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mergepath/internal/stats"
)

// Lifecycle stage names, shared by spans, the per-stage histograms on
// /metrics, and docs/METRICS.md. Stages record wall time except
// StagePartition and StageMerge, which record cumulative worker time
// (summed across the round's concurrent workers) — the right measure
// for the paper's "co-ranking is negligible next to merging" claim.
const (
	// StageDecode is request-body read + JSON parse + sortedness checks.
	StageDecode = "decode"
	// StageQueueWait is admission: submit to the bounded queue until the
	// dispatcher dequeues the job.
	StageQueueWait = "queue_wait"
	// StageCoalesceWait is the time a small merge sat in the pending
	// buffer while the dispatcher drained what was already queued behind
	// it into the same round (coalesced pair jobs only).
	StageCoalesceWait = "coalesce_wait"
	// StagePartition is cumulative worker time in diagonal/offset binary
	// searches (the co-rank step) for this request's round.
	StagePartition = "partition"
	// StageMerge is cumulative worker time executing merge/sort steps
	// for this request's round.
	StageMerge = "merge"
	// StageExecute is wall time from admission until the job completed
	// or failed (queue wait + coalesce wait + round execution).
	StageExecute = "execute"
	// StageWrite is response serialization: status + JSON body write.
	StageWrite = "write"
)

// stageNames is the fixed stage key set, in lifecycle order.
var stageNames = []string{
	StageDecode, StageQueueWait, StageCoalesceWait,
	StagePartition, StageMerge, StageExecute, StageWrite,
}

// StageNames returns the lifecycle stage keys in order — the key set of
// the Stages map in MetricsSnapshot and of Server-Timing entries.
// Callers own the returned slice.
func StageNames() []string { return append([]string(nil), stageNames...) }

// Span is one timed lifecycle stage of one request. Start is the offset
// from request arrival; for the round-level stages (partition, merge)
// it is best-effort (the stage ran inside a shared round).
type Span struct {
	Stage string        // one of the Stage* constants
	Start time.Duration // offset from request arrival
	Dur   time.Duration // stage duration (wall or cumulative worker time, per stage)
}

// Trace accumulates the spans of one request. All methods are safe on a
// nil receiver (instrumentation points fire unconditionally; jobs
// submitted without a trace — tests, internal work — skip recording)
// and safe for concurrent use (the dispatcher and the handler goroutine
// both record).
type Trace struct {
	id    string
	start time.Time
	mu    sync.Mutex
	spans []Span
}

func newTrace(id string, start time.Time) *Trace {
	return &Trace{id: id, start: start}
}

// NewTrace starts a trace for a request with the given ID that arrived
// at start. Exported for mergerouter, which records its own lifecycle
// stages (route/forward/scatter) with the same span machinery
// and Server-Timing exposition as the node daemon.
func NewTrace(id string, start time.Time) *Trace { return newTrace(id, start) }

// ID returns the request ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// add records a span for stage that began at begin and lasted d.
func (t *Trace) add(stage string, begin time.Time, d time.Duration) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Stage: stage, Start: begin.Sub(t.start), Dur: d})
	t.mu.Unlock()
}

// span records a stage that began at begin and ends now.
func (t *Trace) span(stage string, begin time.Time) {
	t.add(stage, begin, time.Since(begin))
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Add records a span for stage that began at begin and lasted d — the
// exported form of add, used by mergerouter to stamp stages whose
// duration was measured elsewhere (e.g. cumulative scatter wall time).
func (t *Trace) Add(stage string, begin time.Time, d time.Duration) { t.add(stage, begin, d) }

// Span records a stage that began at begin and ends now (exported for
// mergerouter).
func (t *Trace) Span(stage string, begin time.Time) { t.span(stage, begin) }

// ServerTiming renders the spans recorded so far as a Server-Timing
// header value — the exported form of serverTiming, used by
// mergerouter to emit the same header format as the node daemon.
func (t *Trace) ServerTiming() string { return t.serverTiming() }

// LogLine renders one structured (logfmt-style key=value) access-log
// line for a finished request (exported for mergerouter's -access-log).
func (t *Trace) LogLine(endpoint string, status int, total time.Duration) string {
	return t.logLine(endpoint, status, total)
}

// serverTiming renders the spans recorded so far as a Server-Timing
// header value (RFC: metric;dur=<milliseconds>). The write span cannot
// appear — the header is sent before the body is written; it is still
// aggregated into /metrics.
func (t *Trace) serverTiming() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return ""
	}
	var b strings.Builder
	for i, sp := range t.spans {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s;dur=%.3f", sp.Stage, stats.Millis(sp.Dur))
	}
	return b.String()
}

// logLine renders one structured (logfmt-style key=value) access-log
// line for a finished request.
func (t *Trace) logLine(endpoint string, status int, total time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "req id=%s endpoint=%s status=%d total_ms=%.3f",
		t.ID(), endpoint, status, stats.Millis(total))
	for _, sp := range t.Spans() {
		fmt.Fprintf(&b, " %s_ms=%.3f", sp.Stage, stats.Millis(sp.Dur))
	}
	return b.String()
}

// Request IDs: a per-process random prefix plus a monotonic sequence —
// unique within and (with high probability) across daemon restarts,
// cheap to generate, and graspable in logs. Clients may supply their
// own via an X-Request-Id header, which the daemon honours and echoes.
var (
	reqSeq    atomic.Uint64
	reqPrefix = func() string {
		var b [4]byte
		if _, err := crand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
)

func nextRequestID() string {
	return reqPrefix + "-" + strconv.FormatUint(reqSeq.Add(1), 10)
}

// NextRequestID mints a fresh request ID (process-random prefix plus a
// monotonic sequence number). Exported so mergerouter assigns IDs from
// the same generator scheme and sub-requests stay correlatable in
// backend logs.
func NextRequestID() string { return nextRequestID() }

// traceKey carries the request's *Trace through its context.
type traceKey struct{}

func withTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// traceFrom returns the request's trace, or nil when tracing was not
// set up (direct handler tests); all Trace methods accept nil.
func traceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

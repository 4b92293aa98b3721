package server

import (
	"sync"
	"sync/atomic"
	"time"

	"mergepath/internal/core"
	"mergepath/internal/jobs"
	"mergepath/internal/kway"
	"mergepath/internal/overload"
	"mergepath/internal/promtext"
	"mergepath/internal/stats"
)

// Metrics is the daemon's observability surface, exported as JSON on
// /metrics. All updates are atomic or mutex-scoped to the last-round
// record; handlers and the dispatcher write concurrently.
type Metrics struct {
	start time.Time
	req   *RequestMetrics // per-endpoint outcomes, per-stage span latency

	shed      atomic.Uint64 // 503s from the full admission queue
	throttled atomic.Uint64 // 429s from the adaptive overload controller
	timeouts  atomic.Uint64 // jobs expired before or while queued
	canceled  atomic.Uint64 // requests abandoned by their client (499 class)
	shedFlush atomic.Uint64 // coalesced pairs dropped expired/canceled at flush
	panics    atomic.Uint64 // round panics recovered into per-job 500s

	reqJSON    atomic.Uint64 // request bodies classified application/json
	reqBinary  atomic.Uint64 // request bodies classified as the wire frame
	respJSON   atomic.Uint64 // responses written as JSON (route envelope)
	respBinary atomic.Uint64 // responses written as wire frames
	badMedia   atomic.Uint64 // requests refused with 415

	batchRounds atomic.Uint64 // coalesced rounds executed
	batchPairs  atomic.Uint64 // small requests coalesced into those rounds
	batchElems  atomic.Uint64 // output elements merged by those rounds
	runRounds   atomic.Uint64 // uncoalesced (whole-pool) rounds with load stats

	kwayHeap   atomic.Uint64 // k-way merges executed with the heap strategy
	kwayCoRank atomic.Uint64 // k-way merges executed with the co-rank strategy

	mu            sync.Mutex
	lastRoundLoad []core.WorkerStat // per-worker loads of the latest coalesced round
	lastRound     stats.LoadSummary // summary of the latest balanced round
	imb           ratios            // per-round imbalance ratios

	kwayLastK       int    // run count of the latest k-way round
	kwayLastWorkers int    // windows of the latest k-way co-rank round
	kwayImb         ratios // co-rank rounds' per-worker imbalance ratios
}

// ratios keeps the worst and the mean of a series of imbalance ratios.
type ratios struct {
	max, sum float64
	n        uint64
}

func (r *ratios) add(x float64) {
	r.max = max(r.max, x)
	r.sum += x
	r.n++
}

func (r *ratios) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// endpointNames is the fixed metric key set; one entry per /v1 route
// family ("datasets" and "jobs" each cover their whole CRUD surface).
var endpointNames = []string{"merge", "sort", "mergek", "setops", "select", "datasets", "jobs"}

// NewMetrics returns a zeroed metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), req: NewRequestMetrics(endpointNames, stageNames)}
}

// RequestMetrics counts finished requests per endpoint and times their
// spans per stage, over fixed key sets created up front; names outside
// them are dropped. Both daemons record through it, each with its own
// endpoint and stage names, and export it with RequestMetricDescs.
type RequestMetrics struct {
	endpoints map[string]*endpointMetrics
	stages    map[string]*stats.Histogram
}

type endpointMetrics struct {
	count   atomic.Uint64
	err4xx  atomic.Uint64
	err5xx  atomic.Uint64
	latency stats.Histogram // successful requests only
}

// NewRequestMetrics returns zeroed counters for the given endpoint and
// stage names.
func NewRequestMetrics(endpoints, stages []string) *RequestMetrics {
	r := &RequestMetrics{
		endpoints: make(map[string]*endpointMetrics, len(endpoints)),
		stages:    make(map[string]*stats.Histogram, len(stages)),
	}
	for _, name := range endpoints {
		r.endpoints[name] = &endpointMetrics{}
	}
	for _, name := range stages {
		r.stages[name] = &stats.Histogram{}
	}
	return r
}

// Observe records one finished request against an endpoint. Only 2xx
// requests contribute to the latency histogram so shed traffic cannot
// flatter the percentiles.
func (r *RequestMetrics) Observe(endpoint string, status int, d time.Duration) {
	e, ok := r.endpoints[endpoint]
	if !ok {
		return
	}
	e.count.Add(1)
	switch {
	case status >= 500:
		e.err5xx.Add(1)
	case status >= 400:
		e.err4xx.Add(1)
	default:
		e.latency.Observe(d)
	}
}

// ObserveSpans folds one request's spans into the per-stage latency
// histograms.
func (r *RequestMetrics) ObserveSpans(spans []Span) {
	for _, sp := range spans {
		if h, ok := r.stages[sp.Stage]; ok {
			h.Observe(sp.Dur)
		}
	}
}

// Snapshot returns the endpoints and stages maps of a /metrics
// document.
func (r *RequestMetrics) Snapshot() (map[string]EndpointSnapshot, map[string]stats.HistogramSnapshot) {
	eps := make(map[string]EndpointSnapshot, len(r.endpoints))
	for name, e := range r.endpoints {
		eps[name] = EndpointSnapshot{
			Count:   e.count.Load(),
			Err4xx:  e.err4xx.Load(),
			Err5xx:  e.err5xx.Load(),
			Latency: e.latency.Snapshot(),
		}
	}
	stages := make(map[string]stats.HistogramSnapshot, len(r.stages))
	for name, h := range r.stages {
		stages[name] = h.Snapshot()
	}
	return eps, stages
}

// RequestMetricDescs declares the per-endpoint and per-stage families
// of RequestMetrics under a daemon's name prefix; stageHelp describes
// that daemon's stages.
func RequestMetricDescs(prefix, stageHelp string) []promtext.Desc {
	return []promtext.Desc{
		promtext.Counter(prefix+"_requests_total", "endpoints.*.count", "Requests finished, by endpoint (all statuses).").By("endpoint"),
		promtext.Counter(prefix+"_request_errors_total", "endpoints.*.errors_4xx", "Error responses, by endpoint and status class.").By("endpoint", `class="4xx"`),
		promtext.Counter(prefix+"_request_errors_total", "endpoints.*.errors_5xx", "Error responses, by endpoint and status class.").By("endpoint", `class="5xx"`),
		promtext.Summary(prefix+"_request_latency_seconds", "endpoints.*.latency", "Latency of successful requests, by endpoint.").By("endpoint"),
		promtext.Summary(prefix+"_stage_latency_seconds", "stages.*", stageHelp).By("stage"),
	}
}

// noteRound records the load summary of one globally balanced round —
// coalesced batch or whole-pool — updating the latest summary and the
// running max/mean imbalance that /metrics exports.
func (m *Metrics) noteRound(s stats.LoadSummary) {
	if s.Workers == 0 {
		return
	}
	m.mu.Lock()
	m.lastRound = s
	m.imb.add(s.Imbalance)
	m.mu.Unlock()
}

// noteImbalance records a bare imbalance ratio (no per-worker element
// detail — e.g. a sort's worst merge round) against the running max and
// mean. Zero means "no balanced round ran" and is skipped.
func (m *Metrics) noteImbalance(imb float64) {
	if imb <= 0 {
		return
	}
	m.mu.Lock()
	m.imb.add(imb)
	m.mu.Unlock()
}

// noteKWay records one k-way merge round: the strategy that actually
// executed, and — on the co-rank path, which reports per-worker loads —
// the window loads against both the pool-wide balanced-round metrics
// (extending the Theorem 5 imbalance validation from 2-way to k-way)
// and the k-way-specific aggregates.
func (m *Metrics) noteKWay(st kway.Stats) {
	switch st.Strategy {
	case kway.StrategyHeap:
		m.kwayHeap.Add(1)
	case kway.StrategyCoRank:
		m.kwayCoRank.Add(1)
	}
	m.mu.Lock()
	m.kwayLastK = st.K
	m.kwayLastWorkers = st.Workers
	m.mu.Unlock()
	if len(st.PerWorker) == 0 {
		return
	}
	m.noteRound(stats.SummarizeLoads(st.PerWorker))
	m.mu.Lock()
	m.kwayImb.add(st.Imbalance)
	m.mu.Unlock()
}

// recordRound accounts one balanced merge round (core.MergeRound).
// Every request in traces gets partition and merge spans carrying the
// round's cumulative worker time — a coalesced round is shared, so each
// member sees the whole round. pairs is the number of coalesced
// requests, 0 for a whole-pool run round; a run round that engaged no
// worker (canceled before it started) is not counted. The per-worker
// element spread feeds the imbalance metrics. m may be nil (spans only).
func (m *Metrics) recordRound(began time.Time, ws []core.WorkerStat, pairs int, traces ...*Trace) {
	if len(ws) == 0 && pairs == 0 {
		return
	}
	var search, merge time.Duration
	elems := 0
	for _, w := range ws {
		search += w.Search
		merge += w.Merge
		elems += w.Elements
	}
	for _, tr := range traces {
		tr.add(StagePartition, began, search)
		tr.add(StageMerge, began, merge)
	}
	if m == nil {
		return
	}
	if pairs == 0 {
		m.runRounds.Add(1)
	} else {
		m.batchRounds.Add(1)
		m.batchPairs.Add(uint64(pairs))
		m.batchElems.Add(uint64(elems))
		m.mu.Lock()
		m.lastRoundLoad = ws
		m.mu.Unlock()
	}
	m.noteRound(stats.SummarizeWorkers(ws))
}

// EndpointSnapshot is one endpoint's row in the /metrics JSON.
type EndpointSnapshot struct {
	Count   uint64                  `json:"count"`      // requests finished, all statuses
	Err4xx  uint64                  `json:"errors_4xx"` // client-error responses
	Err5xx  uint64                  `json:"errors_5xx"` // server-error responses
	Latency stats.HistogramSnapshot `json:"latency"`    // successful requests only
}

// QueueSnapshot describes admission control state.
type QueueSnapshot struct {
	Depth    int    `json:"depth"`          // jobs currently queued
	Capacity int    `json:"capacity"`       // queue bound; full queue sheds 503
	Shed     uint64 `json:"shed_total"`     // requests refused with 503
	Timeouts uint64 `json:"timeouts_total"` // deadlines expired before completion (504)
	// Throttled counts requests refused with 429 by the adaptive overload
	// controller (queue sojourn over target) — separate from Shed because
	// a 429 is the controller working as designed while a 503 means the
	// hard queue bound was hit despite it.
	Throttled uint64 `json:"throttled_total"`
	// Canceled counts requests abandoned by their client (disconnect or
	// explicit cancel) — deliberately separate from Timeouts: a cancel is
	// the client's choice, not a server SLO violation.
	Canceled uint64 `json:"canceled_total"`
	// ShedAtFlush counts coalesced pairs dropped at batch-flush time
	// because their deadline passed (or client vanished) between dequeue
	// and flush.
	ShedAtFlush uint64 `json:"shed_at_flush_total"`
}

// PoolSnapshot describes the worker pool and the coalescing path.
type PoolSnapshot struct {
	Workers       int                `json:"workers"`                    // fixed pool size
	Utilization   float64            `json:"utilization"`                // fraction of uptime spent in rounds
	BusySeconds   float64            `json:"busy_seconds"`               // total round-execution time
	BatchRounds   uint64             `json:"batch_rounds"`               // coalesced rounds executed
	BatchPairs    uint64             `json:"batch_pairs"`                // small merges coalesced into them
	BatchElems    uint64             `json:"batch_elements"`             // output elements those rounds produced
	PairsPerRound float64            `json:"pairs_per_round"`            // mean coalescing factor
	LastRoundLoad []stats.WorkerLoad `json:"last_round_loads,omitempty"` // per-worker detail of the latest coalesced round
	// RunRounds counts uncoalesced whole-pool rounds (large merges) that
	// reported per-worker load stats.
	RunRounds uint64 `json:"run_rounds"`
	// LastRound summarizes the per-worker element counts of the latest
	// balanced round (coalesced or whole-pool): min/max/mean elements
	// per worker and the max/min imbalance ratio. Theorem 5 predicts
	// Imbalance ~1.0 for every uncoalesced round.
	LastRound stats.LoadSummary `json:"last_round"`
	// ImbalanceMax is the worst per-round imbalance ratio since start.
	ImbalanceMax float64 `json:"imbalance_max"`
	// ImbalanceMean is the mean per-round imbalance ratio since start.
	ImbalanceMean float64 `json:"imbalance_mean"`
	// PanicsRecovered counts request-induced panics caught inside rounds
	// and converted to per-job 500s; nonzero means a request found a bug
	// (or the fault injector is on) but the daemon survived it.
	PanicsRecovered uint64 `json:"panics_recovered"`
}

// WireSnapshot counts request and response bodies on the /v1 request
// endpoints by negotiated format, plus the 415 refusals. A fleet
// migrating from JSON to the binary frame watches RequestsBinary climb
// here (and on the router) to know when the compatibility path can be
// retired.
type WireSnapshot struct {
	// RequestsJSON counts request bodies negotiated as JSON.
	RequestsJSON uint64 `json:"requests_json"`
	// RequestsBinary counts request bodies negotiated as the frame.
	RequestsBinary uint64 `json:"requests_binary"`
	// ResponsesJSON counts responses written as JSON.
	ResponsesJSON uint64 `json:"responses_json"`
	// ResponsesBinary counts responses written as frames.
	ResponsesBinary uint64 `json:"responses_binary"`
	// UnsupportedMediaType counts requests refused with 415 — an
	// unparseable/unknown Content-Type, or the frame sent to an endpoint
	// with no binary request form (setops, select).
	UnsupportedMediaType uint64 `json:"unsupported_media_type_total"`
}

// KWaySnapshot reports the k-way merge strategy counters: rounds by
// executed strategy and the per-worker window imbalance of the co-rank
// path — the k-way extension of the Theorem 5 balance check (see
// docs/KWAY.md). Exported on /metrics, /metrics/prom and /healthz.
type KWaySnapshot struct {
	// MergesHeap counts k-way rounds executed with the sequential
	// strategy (flag spelling heap).
	MergesHeap uint64 `json:"merges_heap"`
	// MergesCoRank counts rounds executed with co-ranking windows.
	MergesCoRank uint64 `json:"merges_corank"`
	// LastK is the run count of the latest k-way round.
	LastK int `json:"last_k"`
	// LastWorkers is the parallel window count of the latest round.
	LastWorkers int `json:"last_workers"`
	// ImbalanceMax is the worst per-worker window imbalance ratio of
	// any co-rank round since start (~1.0 by construction).
	ImbalanceMax float64 `json:"imbalance_max"`
	// ImbalanceMean is the mean co-rank window imbalance since start.
	ImbalanceMean float64 `json:"imbalance_mean"`
}

// MetricsSnapshot is the /metrics JSON document. The same numbers back
// the Prometheus exposition on /metrics/prom (rendered from this struct
// so the two surfaces cannot drift).
type MetricsSnapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"` // seconds since the server started
	Queue         QueueSnapshot               `json:"queue"`          // admission-control state
	Pool          PoolSnapshot                `json:"pool"`           // worker pool, rounds, load balance
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`      // per-endpoint counters and latency
	// Stages aggregates per-request lifecycle spans: one latency
	// histogram per stage (see the Stage* constants and docs/METRICS.md
	// for semantics; partition and merge record cumulative worker time,
	// everything else wall time).
	Stages map[string]stats.HistogramSnapshot `json:"stages"`
	// Overload is the adaptive admission controller's state: the CoDel
	// state machine, the congestion signal it acts on, and the computed
	// Retry-After it is currently quoting. Same snapshot as /healthz.
	Overload overload.Snapshot `json:"overload"`
	// Wire counts bodies by negotiated format (JSON vs the binary
	// frame) and 415 refusals on the /v1 request endpoints.
	Wire WireSnapshot `json:"wire"`
	// KWay reports the /v1/mergek strategy counters and co-rank window
	// balance (see docs/KWAY.md).
	KWay KWaySnapshot `json:"kway"`
	// Jobs is the asynchronous dataset/jobs subsystem's counters and
	// gauges (internal/jobs): submissions by outcome, queue occupancy,
	// spill usage and external-sort block I/O. Nil only in unit tests
	// that snapshot a bare Metrics without a server.
	Jobs *jobs.Snapshot `json:"jobs,omitempty"`
}

// kwaySnapshot assembles the k-way strategy counters; shared by
// /metrics and /healthz so the surfaces cannot drift.
func (m *Metrics) kwaySnapshot() KWaySnapshot {
	s := KWaySnapshot{
		MergesHeap:   m.kwayHeap.Load(),
		MergesCoRank: m.kwayCoRank.Load(),
	}
	m.mu.Lock()
	s.LastK = m.kwayLastK
	s.LastWorkers = m.kwayLastWorkers
	s.ImbalanceMax, s.ImbalanceMean = m.kwayImb.max, m.kwayImb.mean()
	m.mu.Unlock()
	return s
}

// snapshot assembles the exported document. p supplies live queue/worker
// state (nil-safe for tests that only exercise counters).
func (m *Metrics) snapshot(p *pool) MetricsSnapshot {
	s := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Queue: QueueSnapshot{
			Shed:        m.shed.Load(),
			Throttled:   m.throttled.Load(),
			Timeouts:    m.timeouts.Load(),
			Canceled:    m.canceled.Load(),
			ShedAtFlush: m.shedFlush.Load(),
		},
		Pool: PoolSnapshot{
			BatchRounds:     m.batchRounds.Load(),
			BatchPairs:      m.batchPairs.Load(),
			BatchElems:      m.batchElems.Load(),
			RunRounds:       m.runRounds.Load(),
			PanicsRecovered: m.panics.Load(),
		},
		Wire: WireSnapshot{
			RequestsJSON:         m.reqJSON.Load(),
			RequestsBinary:       m.reqBinary.Load(),
			ResponsesJSON:        m.respJSON.Load(),
			ResponsesBinary:      m.respBinary.Load(),
			UnsupportedMediaType: m.badMedia.Load(),
		},
	}
	s.Endpoints, s.Stages = m.req.Snapshot()
	if rounds := s.Pool.BatchRounds; rounds > 0 {
		s.Pool.PairsPerRound = float64(s.Pool.BatchPairs) / float64(rounds)
	}
	if p != nil {
		s.Queue.Depth = p.depth()
		s.Queue.Capacity = cap(p.queue)
		s.Pool.Workers = p.workers
		s.Pool.BusySeconds = time.Duration(p.busyNanos.Load()).Seconds()
		if up := s.UptimeSeconds; up > 0 {
			s.Pool.Utilization = s.Pool.BusySeconds / up
		}
		s.Overload = p.ctrl.SnapshotNow()
	}
	s.KWay = m.kwaySnapshot()
	m.mu.Lock()
	if len(m.lastRoundLoad) > 0 {
		s.Pool.LastRoundLoad = stats.WorkerLoads(m.lastRoundLoad)
	}
	s.Pool.LastRound = m.lastRound
	s.Pool.ImbalanceMax, s.Pool.ImbalanceMean = m.imb.max, m.imb.mean()
	m.mu.Unlock()
	return s
}

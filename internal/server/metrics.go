package server

import (
	"sync"
	"sync/atomic"
	"time"

	"mergepath/internal/core"
	"mergepath/internal/jobs"
	"mergepath/internal/kway"
	"mergepath/internal/overload"
	"mergepath/internal/stats"
)

// Metrics is the daemon's observability surface, exported as JSON on
// /metrics. All updates are atomic or mutex-scoped to the last-round
// record; handlers and the dispatcher write concurrently.
type Metrics struct {
	start     time.Time
	endpoints map[string]*endpointMetrics // fixed key set, created up front
	stages    map[string]*stats.Histogram // fixed key set: per-stage span latency

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
	imbMax        float64           // worst per-round imbalance ratio seen
	imbSum        float64           // running sum of per-round imbalance ratios
	imbCount      uint64            // rounds contributing to imbSum

	kwayLastK       int     // run count of the latest k-way round
	kwayLastWorkers int     // windows of the latest k-way co-rank round
	kwayImbMax      float64 // worst k-way per-worker imbalance seen
	kwayImbSum      float64 // running sum of k-way imbalance ratios
	kwayImbCount    uint64  // co-rank rounds contributing to kwayImbSum
}

type endpointMetrics struct {
	count   atomic.Uint64
	err4xx  atomic.Uint64
	err5xx  atomic.Uint64
	latency stats.Histogram // successful requests only
}

// endpointNames is the fixed metric key set; one entry per /v1 route
// family ("datasets" and "jobs" each cover their whole CRUD surface).
var endpointNames = []string{"merge", "sort", "mergek", "setops", "select", "datasets", "jobs"}

// NewMetrics returns a zeroed metrics registry.
func NewMetrics() *Metrics {
	m := &Metrics{
		start:     time.Now(),
		endpoints: make(map[string]*endpointMetrics, len(endpointNames)),
		stages:    make(map[string]*stats.Histogram, len(stageNames)),
	}
	for _, name := range endpointNames {
		m.endpoints[name] = &endpointMetrics{}
	}
	for _, name := range stageNames {
		m.stages[name] = &stats.Histogram{}
	}
	return m
}

// observeSpans folds one request's spans into the per-stage latency
// histograms. Unknown stage names are dropped (fixed key set, like
// endpoints).
func (m *Metrics) observeSpans(spans []Span) {
	for _, sp := range spans {
		if h, ok := m.stages[sp.Stage]; ok {
			h.Observe(sp.Dur)
		}
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
	if s.Imbalance > m.imbMax {
		m.imbMax = s.Imbalance
	}
	m.imbSum += s.Imbalance
	m.imbCount++
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
	if imb > m.imbMax {
		m.imbMax = imb
	}
	m.imbSum += imb
	m.imbCount++
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
	if st.Imbalance > m.kwayImbMax {
		m.kwayImbMax = st.Imbalance
	}
	m.kwayImbSum += st.Imbalance
	m.kwayImbCount++
	m.mu.Unlock()
}

// observe records one finished request against an endpoint. Only 2xx
// requests contribute to the latency histogram so shed traffic cannot
// flatter the percentiles.
func (m *Metrics) observe(endpoint string, status int, d time.Duration) {
	e, ok := m.endpoints[endpoint]
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
	// because their deadline passed (or client vanished) while parked in
	// the pending buffer.
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
	s.ImbalanceMax = m.kwayImbMax
	if m.kwayImbCount > 0 {
		s.ImbalanceMean = m.kwayImbSum / float64(m.kwayImbCount)
	}
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
		Endpoints: make(map[string]EndpointSnapshot, len(m.endpoints)),
		Stages:    make(map[string]stats.HistogramSnapshot, len(m.stages)),
	}
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
	s.Pool.ImbalanceMax = m.imbMax
	if m.imbCount > 0 {
		s.Pool.ImbalanceMean = m.imbSum / float64(m.imbCount)
	}
	m.mu.Unlock()
	for name, e := range m.endpoints {
		s.Endpoints[name] = EndpointSnapshot{
			Count:   e.count.Load(),
			Err4xx:  e.err4xx.Load(),
			Err5xx:  e.err5xx.Load(),
			Latency: e.latency.Snapshot(),
		}
	}
	for name, h := range m.stages {
		s.Stages[name] = h.Snapshot()
	}
	return s
}

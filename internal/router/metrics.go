package router

import (
	"encoding/json"
	"maps"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mergepath/internal/promtext"
	"mergepath/internal/server"
	"mergepath/internal/stats"
	"mergepath/internal/wire"
)

// metrics is the router's observability registry, mirroring the node
// daemon's shape: fixed per-endpoint key set, per-stage histograms,
// plus the routing-specific counters (scatter fan-out, reroutes).
type metrics struct {
	start time.Time
	req   *server.RequestMetrics // per-endpoint outcomes, per-stage span latency

	routed     atomic.Uint64 // requests forwarded whole to one backend
	scattered  atomic.Uint64 // merges split across backends
	rerouted   atomic.Uint64 // failovers: retries against a different backend
	failed     atomic.Uint64 // requests the router answered 502/503 for
	binaryHops atomic.Uint64 // scatter sub-requests encoded as binary frames

	mu     sync.Mutex
	fanout map[int]uint64 // scatter requests by window count
}

// endpointNames is the fixed metric key set; one entry per /v1 route.
var endpointNames = []string{"merge", "sort", "mergek", "setops", "select"}

func newMetrics() *metrics {
	return &metrics{
		start:  time.Now(),
		req:    server.NewRequestMetrics(endpointNames, stageNames),
		fanout: make(map[int]uint64),
	}
}

// noteScatter records one completed scatter and its fan-out (window
// count).
func (m *metrics) noteScatter(parts int) {
	m.scattered.Add(1)
	m.mu.Lock()
	m.fanout[parts]++
	m.mu.Unlock()
}

// BackendSnapshot is one backend's row in the router's /metrics JSON:
// the poller's view (state, load signals) plus the traffic this router
// sent it and the state of the resilient client's circuit breakers.
type BackendSnapshot struct {
	// URL is the backend's base URL.
	URL string `json:"url"`
	// State is the routing tier the poller currently assigns: healthy,
	// degraded, shedding, draining or down.
	State string `json:"state"`
	// BacklogElements is the backend's last-reported element backlog —
	// the least-loaded routing signal.
	BacklogElements int64 `json:"backlog_elements"`
	// QueueDepth is the backend's last-reported admission-queue depth.
	QueueDepth int `json:"queue_depth"`
	// DrainElemsPerSec is the backend's last-reported EWMA throughput.
	DrainElemsPerSec float64 `json:"drain_elems_per_sec"`
	// Requests counts whole- and sub-requests this router sent it.
	Requests uint64 `json:"requests"`
	// Errors counts transport failures and retryable-status responses
	// (429/5xx) among those requests.
	Errors uint64 `json:"errors"`
	// Breakers is the per-endpoint circuit-breaker state of this
	// backend's resilience client (path → closed/open/half-open).
	Breakers map[string]string `json:"breakers,omitempty"`
	// BreakersOpen counts the Breakers not closed (open or half-open).
	BreakersOpen int `json:"breakers_open"`
}

// RoutingSnapshot aggregates the router's own decisions.
type RoutingSnapshot struct {
	// Routed counts requests forwarded whole to a single backend.
	Routed uint64 `json:"routed"`
	// Scattered counts merges split across backends with the
	// co-ranking cut.
	Scattered uint64 `json:"scattered"`
	// Rerouted counts failovers — attempts retried against a different
	// backend after the first pick failed.
	Rerouted uint64 `json:"rerouted"`
	// Failed counts requests the router itself answered 502/503 for
	// because no backend produced a usable response.
	Failed uint64 `json:"failed"`
	// BinaryHops counts scatter sub-requests sent as binary frames to
	// backends advertising the wire format — on an all-current fleet it
	// tracks the scatter volume; a persistent gap means some backends
	// are still being fed JSON (mixed-version degrade).
	BinaryHops uint64 `json:"binary_hops"`
	// Fanout is the scatter fan-out distribution: window count →
	// number of scattered requests that used it.
	Fanout map[int]uint64 `json:"fanout,omitempty"`
}

// MetricsSnapshot is the router's /metrics JSON document; the same
// numbers back /metrics/prom.
type MetricsSnapshot struct {
	// UptimeSeconds is seconds since the router started.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Routing aggregates routing decisions and failovers.
	Routing RoutingSnapshot `json:"routing"`
	// Backends has one row per configured backend, poll state included.
	Backends []BackendSnapshot `json:"backends"`
	// Endpoints is per-/v1-route counters and latency, keyed like the
	// node daemon's endpoints map.
	Endpoints map[string]server.EndpointSnapshot `json:"endpoints"`
	// Stages is per-stage span latency (route/forward/scatter plus
	// decode/write), all wall time.
	Stages map[string]stats.HistogramSnapshot `json:"stages"`
}

func (m *metrics) snapshot(reg *registry) MetricsSnapshot {
	s := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Routing: RoutingSnapshot{
			Routed:     m.routed.Load(),
			Scattered:  m.scattered.Load(),
			Rerouted:   m.rerouted.Load(),
			Failed:     m.failed.Load(),
			BinaryHops: m.binaryHops.Load(),
		},
	}
	s.Endpoints, s.Stages = m.req.Snapshot()
	m.mu.Lock()
	s.Routing.Fanout = maps.Clone(m.fanout)
	m.mu.Unlock()
	for _, b := range reg.backends {
		b.mu.Lock()
		bs := BackendSnapshot{
			URL:        b.url,
			State:      tierNames[b.tierLocked()],
			QueueDepth: b.health.QueueDepth,
		}
		if b.health.Overload != nil {
			bs.BacklogElements = b.health.Overload.BacklogElements
			bs.DrainElemsPerSec = b.health.Overload.DrainElemsPerSec
		}
		b.mu.Unlock()
		bs.Requests = b.requests.Load()
		bs.Errors = b.errors.Load()
		bs.Breakers = b.client.BreakerStates()
		for _, st := range bs.Breakers {
			if st != "closed" {
				bs.BreakersOpen++
			}
		}
		s.Backends = append(s.Backends, bs)
	}
	return s
}

// RouterHealth is the router's GET /healthz document: its own liveness
// plus the fleet view, so one poll answers "can this tier take
// traffic" and "how much of the fleet is behind it".
type RouterHealth struct {
	// Status is "ok" while at least one backend is routable outside the
	// down tier, "degraded" when only shedding/draining backends
	// remain, and "down" (with a 503) when every backend is down.
	Status string `json:"status"`
	// Role is "router" (the node daemon reports "node").
	Role string `json:"role"`
	// Backends is the configured backend count.
	Backends int `json:"backends"`
	// BackendStates counts backends by routing tier name.
	BackendStates map[string]int `json:"backend_states"`
	// Formats lists the request body media types this router accepts on
	// /v1/* (same contract as the node daemon's /healthz formats field).
	Formats []string `json:"formats,omitempty"`
	// WireBackends counts backends whose last poll advertised the
	// binary frame format — fleet operators watch this converge to
	// Backends during a rollout.
	WireBackends int `json:"wire_backends"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := RouterHealth{
		Role:          "router",
		Backends:      len(rt.reg.backends),
		BackendStates: make(map[string]int),
		Formats:       []string{"application/json", wire.ContentType},
	}
	best := tierDown
	for _, b := range rt.reg.backends {
		t := b.tier()
		h.BackendStates[tierNames[t]]++
		if t < best {
			best = t
		}
		if b.speaksWire() {
			h.WireBackends++
		}
	}
	status := http.StatusOK
	switch {
	case best <= tierDegraded:
		h.Status = "ok"
	case best < tierDown:
		h.Status = "degraded"
	default:
		h.Status = "down"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(h)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rt.m.snapshot(rt.reg))
}

// PromMetrics declares every series of the router's Prometheus
// exposition on GET /metrics/prom, each with the MetricsSnapshot JSON
// path it mirrors, in the node daemon's dialect.
var PromMetrics = append([]promtext.Desc{
	promtext.Gauge("mergerouter_uptime_seconds", "uptime_seconds", "Seconds since the router started."),
	promtext.Counter("mergerouter_routed_total", "routing.routed", "Requests forwarded whole to a single backend."),
	promtext.Counter("mergerouter_scattered_total", "routing.scattered", "Merges split across backends with the co-ranking cut."),
	promtext.Counter("mergerouter_rerouted_total", "routing.rerouted", "Failover attempts retried against a different backend."),
	promtext.Counter("mergerouter_failed_total", "routing.failed", "Requests answered 502/503 by the router itself."),
	promtext.Counter("mergerouter_binary_hops_total", "routing.binary_hops", "Scatter sub-requests encoded as binary frames (wire-speaking backends)."),
	promtext.Counter("mergerouter_scatter_fanout_total", "routing.fanout.*", "Scattered requests by window count.").By("windows"),

	// Fleet view: one state gauge (one-hot by tier) and the polled load
	// signals per backend.
	promtext.Gauge("mergerouter_backend_state", "backends[url].state", "Backend routing tier, one-hot: 1 on the series matching the current state.").By("backend").Hot("state", tierNames[:]...),
	promtext.Gauge("mergerouter_backend_backlog_elements", "backends[url].backlog_elements", "Backend's last-reported element backlog.").By("backend"),
	promtext.Gauge("mergerouter_backend_queue_depth", "backends[url].queue_depth", "Backend's last-reported admission-queue depth.").By("backend"),
	promtext.Gauge("mergerouter_backend_drain_elements_per_second", "backends[url].drain_elems_per_sec", "Backend's last-reported EWMA element throughput.").By("backend"),
	promtext.Counter("mergerouter_backend_requests_total", "backends[url].requests", "Whole- and sub-requests this router sent the backend.").By("backend"),
	promtext.Counter("mergerouter_backend_errors_total", "backends[url].errors", "Transport failures and retryable-status responses from the backend.").By("backend"),
	promtext.Gauge("mergerouter_backend_breakers_open", "backends[url].breakers_open", "Backend circuit breakers currently open or half-open.").By("backend"),
}, server.RequestMetricDescs("mergerouter", "Router lifecycle stage timings (all wall time).")...)

package server

import (
	"encoding/json"
	"net/http"

	"mergepath/internal/jobs"
	"mergepath/internal/overload"
)

// Health is the machine-readable GET /healthz document. It is the wire
// contract between a mergepathd node and the mergerouter routing tier:
// the router polls it to learn each backend's overload state, element
// backlog, queue depth and drain rate, and routes (or diverts) traffic
// on those fields instead of guessing from error rates. The same
// overload snapshot backs /metrics and /metrics/prom, so all three
// surfaces always agree.
type Health struct {
	// Status is "ok" while healthy, the overload state name
	// ("degraded", "shedding") while the controller is escalated, and
	// "draining" during graceful shutdown (the only 503 case).
	Status string `json:"status"`
	// Role identifies the process class answering: "node" for
	// mergepathd. mergerouter reports "router" on its own /healthz, so
	// tooling (mergeload's bench tag, dashboards) can tell the tiers
	// apart without out-of-band config.
	Role string `json:"role"`
	// Workers is the node's fixed worker-pool size.
	Workers int `json:"workers"`
	// QueueDepth is the number of jobs currently in the admission
	// queue — the router's cheapest instantaneous load signal.
	QueueDepth int `json:"queue_depth"`
	// QueueCapacity is the admission queue bound; a full queue sheds
	// with 503.
	QueueCapacity int `json:"queue_capacity"`
	// Formats lists the request/response body media types the /v1
	// endpoints accept. The mergerouter tier reads it to decide whether
	// scatter sub-requests to this backend may use the binary frame —
	// capability discovery instead of fleet-wide config, so a mixed-
	// version fleet mid-rollout degrades to JSON per backend.
	Formats []string `json:"formats,omitempty"`
	// Draining is true during graceful shutdown; new work is refused.
	Draining bool `json:"draining,omitempty"`
	// Overload is the adaptive overload controller's snapshot: state
	// machine position, element backlog, EWMA drain rate and the
	// computed Retry-After. Nil only while draining.
	Overload *overload.Snapshot `json:"overload,omitempty"`
	// Jobs is the asynchronous jobs subsystem's snapshot — running and
	// pending counts are the router-relevant fields (a node grinding
	// through a big external sort is busier than its request queue
	// shows). Nil only while draining.
	Jobs *jobs.Snapshot `json:"jobs,omitempty"`
	// KWay reports the node's k-way merge counters and co-rank window
	// balance (docs/KWAY.md) — the same numbers as /metrics.
	// Nil only while draining.
	KWay *KWaySnapshot `json:"kway,omitempty"`
}

// handleHealthz reports liveness plus the overload state machine.
// Draining is the only 503: degraded and shedding still answer 200 —
// the process is healthy, it is the offered load that isn't — with the
// state in the body so orchestrators (and the mergerouter tier) can
// route on it without killing the instance.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	h := Health{
		Role:          "node",
		Workers:       s.cfg.Workers,
		QueueDepth:    s.pool.depth(),
		QueueCapacity: s.cfg.QueueDepth,
		Formats:       wireFormats(),
	}
	if s.draining.Load() {
		h.Status = "draining"
		h.Draining = true
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(h)
		return
	}
	ov := s.ctrl.SnapshotNow()
	h.Status = "ok"
	if ov.State != overload.Healthy.String() {
		h.Status = ov.State
	}
	h.Overload = &ov
	js := s.jobs.Snapshot()
	h.Jobs = &js
	kw := s.m.kwaySnapshot()
	h.KWay = &kw
	_ = json.NewEncoder(w).Encode(h)
}

// Package server is the mergepath service layer: an HTTP/JSON daemon that
// multiplexes many concurrent merge/sort/k-way/set-algebra requests onto
// one fixed worker pool.
//
// The paper's Algorithm 1 balances ONE merge across p workers; a service
// sees the dual problem — thousands of small independent requests whose
// sizes are skewed and bursty. Both collapse to the same primitive: the
// dispatcher coalesces concurrent small merges into a single globally
// load-balanced batch round (internal/batch), and partitions large
// requests across the whole pool (internal/core), so worker load is even
// regardless of the request mix. Admission control is a bounded queue:
// when it is full the daemon sheds with 503 instead of accumulating
// goroutines, and per-request deadlines bound queue wait. /metrics
// exports request counters, queue depth, worker utilization, per-round
// batch loads, and p50/p95/p99 latency histograms.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"mergepath/internal/core"
	"mergepath/internal/fault"
	"mergepath/internal/jobs"
	"mergepath/internal/kway"
	"mergepath/internal/overload"
	"mergepath/internal/promtext"
	"mergepath/internal/psort"
	"mergepath/internal/setops"
	"mergepath/internal/wire"
)

// StatusClientClosedRequest is the de-facto-standard status (nginx's
// 499) for a request whose client went away before the response: not a
// server failure (5xx) and not the client's request being wrong (4xx in
// the usual sense), so it gets the conventional off-registry code. The
// client never reads it; logs and metrics do.
const StatusClientClosedRequest = 499

// Config shapes the daemon. Zero values select the documented defaults.
type Config struct {
	// Workers is the pool size; every round engages all of them.
	// Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds with
	// 503. Default 256.
	QueueDepth int
	// CoalesceLimit is the largest merge output (elements) that takes
	// the coalescing path; bigger requests are partitioned across the
	// pool as their own round. Default 1<<16.
	CoalesceLimit int
	// MaxBodyBytes caps request bodies; beyond it the daemon answers
	// 413. Default 8 MiB.
	MaxBodyBytes int64
	// RequestTimeout is the default per-request deadline covering queue
	// wait plus execution; clients may lower (not raise) it per request
	// with an X-Timeout-Ms header. Timed-out requests get 504.
	// Default 5s.
	RequestTimeout time.Duration
	// Overload tunes the adaptive overload controller (CoDel-style
	// queue-sojourn admission, brownout degradation, computed
	// Retry-After). Zero values select the controller's documented
	// defaults; the controller is always on.
	Overload overload.Config
	// Fault, when non-nil, injects panics/errors/latency into round
	// execution keyed by op (internal/fault) — chaos testing for the
	// panic-isolation and cancellation machinery. Nil in production.
	Fault *fault.Injector
	// AccessLog, when true, writes one structured (key=value) log line
	// per finished request with its ID, endpoint, status and per-stage
	// span timings. Off by default: the spans still reach /metrics and
	// the Server-Timing header either way.
	AccessLog bool
	// Jobs shapes the asynchronous dataset/jobs subsystem (spill
	// directory, per-job memory budget, concurrency and TTL bounds —
	// see internal/jobs). Zero values select the jobs package defaults;
	// the Fault injector above is shared with it automatically.
	Jobs jobs.Config
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CoalesceLimit <= 0 {
		c.CoalesceLimit = 1 << 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	return c
}

// Server is the service. It is an http.Handler; pair it with an
// http.Server (or httptest) for transport.
type Server struct {
	cfg      Config
	m        *Metrics
	pool     *pool
	ctrl     *overload.Controller
	jobs     *jobs.Manager
	mux      *http.ServeMux
	draining atomic.Bool
}

// New starts a Server (its dispatcher runs immediately). Call Drain to
// stop it. New panics if the jobs spill directory cannot be created —
// the one setup step that touches the filesystem.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, m: NewMetrics(), mux: http.NewServeMux()}
	s.ctrl = overload.New(cfg.Overload)
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.m, s.ctrl)
	jcfg := cfg.Jobs
	jcfg.Fault = cfg.Fault
	jcfg.Hooks = s.jobHooks()
	jm, err := jobs.New(jcfg)
	if err != nil {
		panic("server: jobs subsystem: " + err.Error())
	}
	s.jobs = jm
	s.jobRoutes()
	s.mux.HandleFunc("POST /v1/merge", s.route("merge", s.handleMerge))
	s.mux.HandleFunc("POST /v1/sort", s.route("sort", s.handleSort))
	s.mux.HandleFunc("POST /v1/mergek", s.route("mergek", s.handleMergeK))
	s.mux.HandleFunc("POST /v1/setops", s.route("setops", s.handleSetOps))
	s.mux.HandleFunc("POST /v1/select", s.route("select", s.handleSelect))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics/prom", promtext.Handler(PromMetrics, func() any { return s.Snapshot() }))
	return s
}

// jobHooks ties jobs into the overload controller's element
// accounting: a queued or running sort is backlog, so it lengthens
// Retry-After, and each completed sort feeds the drain-rate EWMA. It
// enters as job work, not request work, so a long job with no /v1
// traffic does not look like a stalled request queue.
func (s *Server) jobHooks() jobs.Hooks {
	return jobs.Hooks{
		Enqueue: s.ctrl.EnqueueJob,
		Done:    s.ctrl.DoneJob,
		Drained: s.ctrl.ObserveDrain,
	}
}

// ServeHTTP implements http.Handler by dispatching to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the registry (the daemon logs a summary on exit).
func (s *Server) Metrics() *Metrics { return s.m }

// Snapshot returns the current /metrics document.
func (s *Server) Snapshot() MetricsSnapshot {
	snap := s.m.snapshot(s.pool)
	js := s.jobs.Snapshot()
	snap.Jobs = &js
	return snap
}

// Jobs exposes the jobs manager (the daemon reports its spill dir).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Workers reports the configured pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// Drain gracefully shuts the service down: new work is refused with 503
// while everything already admitted — queued jobs and the round in
// flight — completes. Returns when the dispatcher has exited or ctx
// expires. Call after http.Server.Shutdown so in-flight handlers have
// already received their responses.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	err := s.pool.close(ctx)
	// Jobs are cancellation-prompt (merge-window boundaries), so closing
	// the manager — which cancels live jobs and removes an owned spill
	// dir — does not need the ctx budget the pool drain got.
	if jerr := s.jobs.Close(); err == nil {
		err = jerr
	}
	return err
}

// route wraps an endpoint handler with the shared envelope: request-ID
// assignment, per-stage tracing, response encoding in the negotiated
// format (JSON, or the binary frame via arrayResult), Server-Timing
// exposition, per-endpoint count/latency metrics, and the optional
// structured access log.
func (s *Server) route(endpoint string, h func(*http.Request) (int, any)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = nextRequestID()
		}
		tr := newTrace(id, start)
		r = r.WithContext(withTrace(r.Context(), tr))
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		status, body := h(r)
		w.Header().Set("X-Request-Id", id)
		if st := tr.serverTiming(); st != "" {
			w.Header().Set("Server-Timing", st)
		}
		if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
			// Both shed classes — hard sheds (queue full, draining) and
			// adaptive sheds (overload controller) — tell the client when
			// the backlog should have drained at the measured element
			// throughput, instead of a hardcoded guess.
			w.Header().Set("Retry-After", strconv.Itoa(s.ctrl.RetryAfterSeconds()))
		}
		if status >= 400 {
			// Error and shed responses fire before the body was (fully)
			// read; consuming a bounded remainder keeps the keep-alive
			// connection reusable instead of forcing every refused client
			// into a reconnect exactly when the server is loaded.
			drainBody(r)
		}
		wstart := time.Now()
		s.writeBody(w, status, body)
		tr.span(StageWrite, wstart)
		total := time.Since(start)
		s.m.req.Observe(endpoint, status, total)
		s.m.req.ObserveSpans(tr.Spans())
		if s.cfg.AccessLog {
			log.Print("server: ", tr.logLine(endpoint, status, total))
		}
	}
}

// writeBody encodes one response body in its negotiated format. Array
// results carry their own format decision and pooled buffers (released
// here, after the bytes are on the wire); everything else — error
// documents, job/dataset docs, select responses — is JSON.
func (s *Server) writeBody(w http.ResponseWriter, status int, body any) {
	ar, isArray := body.(*arrayResult)
	if isArray {
		defer ar.free()
	}
	if isArray && ar.binary {
		w.Header().Set("Content-Type", wire.ContentType)
		var n int64
		if ar.isFloat {
			n = wire.Size(len(ar.floats))
		} else {
			n = wire.Size(len(ar.ints))
		}
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
		w.WriteHeader(status)
		if ar.isFloat {
			_ = wire.EncodeFloat64(w, ar.floats)
		} else {
			_ = wire.EncodeInt64(w, ar.ints)
		}
		s.m.respBinary.Add(1)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	switch {
	case isArray && ar.isFloat:
		_ = json.NewEncoder(w).Encode(floatResult{Result: ar.floats})
	case isArray:
		_ = json.NewEncoder(w).Encode(MergeResponse{Result: ar.ints})
	default:
		_ = json.NewEncoder(w).Encode(body)
	}
	s.m.respJSON.Add(1)
}

// decode parses a JSON body, distinguishing oversized (413) from
// malformed (400). A nil error return means req is populated and the
// document was the entire body — a request with trailing bytes after
// the closing brace ({"a":[1]}junk) is malformed, not "parsed fine up
// to the part we read". The body read + parse is recorded as the
// request's decode span.
func decode(r *http.Request, req any) (int, error) {
	t0 := time.Now()
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(req)
	if err == nil {
		// json.Decoder stops at the document's end by design (it decodes
		// streams); asking for one more token distinguishes clean EOF
		// from trailing garbage or a second document.
		switch _, terr := dec.Token(); terr {
		case io.EOF:
		case nil:
			err = errors.New("request body: trailing data after JSON document")
		default:
			err = fmt.Errorf("request body: trailing data after JSON document: %w", terr)
		}
	}
	traceFrom(r.Context()).span(StageDecode, t0)
	if err == nil {
		return http.StatusOK, nil
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, errors.New("request body exceeds limit")
	}
	return http.StatusBadRequest, err
}

// errBadTimeout rejects malformed X-Timeout-Ms values with 400: zero,
// negative, non-numeric and overflowing values are client errors, not
// values to silently ignore (ignoring them would run the request under a
// deadline the client never agreed to).
var errBadTimeout = errors.New("invalid X-Timeout-Ms: must be a positive integer count of milliseconds")

// requestCtx applies the effective deadline: the configured default, or
// a smaller client-requested X-Timeout-Ms. Per the documented contract a
// client may lower the server deadline but never raise it, so values
// above RequestTimeout are clamped; values that don't parse as a
// positive int64 (including overflow) are a 400-worthy error.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	timeout := s.cfg.RequestTimeout
	if h := r.Header.Get("X-Timeout-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, errBadTimeout
		}
		// Compare in milliseconds before converting: ms near MaxInt64
		// would overflow the Duration multiply.
		if ms < timeout.Milliseconds() {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, nil
}

// newJob allocates a job for an endpoint op, attaching the request's
// trace and, when chaos is configured, the fault injector's hook.
func (s *Server) newJob(op string, r *http.Request) *job {
	j := &job{done: make(chan error, 1), trace: traceFrom(r.Context())}
	if inj := s.cfg.Fault; inj != nil {
		j.fault = func() error { return inj.Before(op) }
	}
	return j
}

// admit is the pre-decode admission gate: the drain flag and the
// adaptive overload controller (429, sojourn over target for too
// long). It runs before the body is decoded so a shedding server does
// not also pay to parse the requests it refuses — under overload,
// decode CPU is exactly what must be protected. Returns 0 when the
// request may proceed to decode + execute.
func (s *Server) admit() (int, error) {
	if s.draining.Load() {
		return http.StatusServiceUnavailable, ErrDraining
	}
	if ok, _ := s.ctrl.Admit(); !ok {
		s.m.throttled.Add(1)
		return http.StatusTooManyRequests, ErrOverloaded
	}
	return 0, nil
}

// execute runs an admitted job through the pool and maps pool errors to
// HTTP status codes. Returns 0 on success. Admission is two-layered:
// admit() sheds first (429, before decode), then the bounded queue
// sheds on hard overflow (503) — the 429 layer should normally keep
// the queue from ever filling.
func (s *Server) execute(r *http.Request, j *job) (int, error) {
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		return http.StatusBadRequest, err
	}
	defer cancel()
	t0 := time.Now()
	err = s.pool.do(ctx, j)
	j.trace.span(StageExecute, t0)
	switch {
	case err == nil:
		return 0, nil
	case errors.Is(err, ErrQueueFull):
		s.m.shed.Add(1)
		return http.StatusServiceUnavailable, err
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, err
	case errors.Is(err, ErrDeadline):
		s.m.timeouts.Add(1)
		return http.StatusGatewayTimeout, err
	case errors.Is(err, ErrCanceled):
		s.m.canceled.Add(1)
		return StatusClientClosedRequest, err
	default:
		return http.StatusInternalServerError, err
	}
}

func errBody(err error) ErrorResponse { return ErrorResponse{Error: err.Error()} }

// mergeTwo validates a and b and merges them into out through the
// pool. Small int64 merges take the coalescing pair path (the batch
// layer is int64-typed); everything else — large merges and all float64
// merges — runs as an instrumented whole-pool round: per-worker
// search/merge timings become partition/merge spans and the round's
// element spread feeds the imbalance metrics (the Theorem 5 check: it
// should sit at ~1.0). Returns execute()'s status mapping.
func mergeTwo[T cmp.Ordered](s *Server, r *http.Request, a, b, out []T) (int, error) {
	if err := CheckSorted("a", a); err != nil {
		return http.StatusBadRequest, err
	}
	if err := CheckSorted("b", b); err != nil {
		return http.StatusBadRequest, err
	}
	j := s.newJob("merge", r)
	j.elems = len(out)
	if ia, ok := any(a).([]int64); ok && len(out) <= s.cfg.CoalesceLimit {
		j.pair = &core.Pair[int64]{A: ia, B: any(b).([]int64), Out: any(out).([]int64)}
	} else {
		tr := j.trace
		j.run = func(ctx context.Context, workers int) error {
			began := time.Now()
			ws, err := core.MergeRound(ctx, []core.Pair[T]{{A: a, B: b, Out: out}}, workers, make([]core.WorkerStat, workers))
			s.m.recordRound(began, ws, 0, tr)
			return err
		}
	}
	return s.execute(r, j)
}

// sortData sorts data into out through the pool's whole-pool round
// path, recording psort's phase timings as partition/merge spans. data
// is the run storage and holds sorted runs afterwards.
func sortData[T cmp.Ordered](s *Server, r *http.Request, out, data []T) (int, error) {
	j := s.newJob("sort", r)
	j.elems = len(data)
	tr := j.trace
	j.run = func(ctx context.Context, workers int) error {
		began := time.Now()
		st, err := psort.SortInto(ctx, out, data, workers)
		// Partition = co-rank searches; merge = run sorting + merge
		// steps (both are element-processing work). Imbalance: the
		// merge pass.
		tr.add(StagePartition, began, st.Search)
		tr.add(StageMerge, began, st.RunSort+st.Merge)
		s.m.noteImbalance(st.MaxImbalance)
		return err
	}
	return s.execute(r, j)
}

// mergeKLists validates and k-way merges lists through the pool. With a
// non-nil dst the merge lands there (the pooled binary-response path);
// otherwise kway allocates — which preserves the JSON contract that an
// empty request yields a null result.
func mergeKLists[T cmp.Ordered](s *Server, r *http.Request, lists [][]T, dst []T) (int, []T, error) {
	for i, list := range lists {
		if err := CheckSorted("lists["+strconv.Itoa(i)+"]", list); err != nil {
			return http.StatusBadRequest, nil, err
		}
	}
	var result []T
	j := s.newJob("mergek", r)
	for _, list := range lists {
		j.elems += len(list)
	}
	j.run = func(ctx context.Context, workers int) error {
		out := dst
		if out == nil {
			if len(lists) == 0 {
				return nil // JSON contract: an empty request merges to null
			}
			out = make([]T, j.elems)
		}
		var st kway.Stats
		var err error
		result, st, err = kway.MergeIntoCtx(ctx, out, lists, workers, nil)
		s.m.noteKWay(st)
		return err
	}
	status, err := s.execute(r, j)
	return status, result, err
}

func (s *Server) handleMerge(r *http.Request) (int, any) {
	if status, err := s.admit(); status != 0 {
		return status, errBody(err)
	}
	bf, err := s.requestFormat(r)
	if err != nil {
		return http.StatusUnsupportedMediaType, errBody(err)
	}
	binOut := wantsWire(r)
	if bf == fmtBinary {
		f, status, err := s.decodeFrame(r, 2)
		if err != nil {
			return status, errBody(err)
		}
		// When a request fails, its frame and output arenas are left to
		// the GC, not pooled: the pool answers a canceled or expired
		// request at once, while its round may still be writing into
		// them up to the next chunk or run boundary.
		if f.Type == wire.Float64 {
			a, b := f.Floats[0], f.Floats[1]
			out := wire.GetFloat64(len(a) + len(b))
			if status, err := mergeTwo(s, r, a, b, out); err != nil {
				return status, errBody(err)
			}
			f.Release()
			return http.StatusOK, &arrayResult{binary: binOut, isFloat: true, floats: out,
				release: func() { wire.PutFloat64(out) }}
		}
		a, b := f.Ints[0], f.Ints[1]
		out := wire.GetInt64(len(a) + len(b))
		if status, err := mergeTwo(s, r, a, b, out); err != nil {
			return status, errBody(err)
		}
		f.Release()
		return http.StatusOK, &arrayResult{binary: binOut, ints: out,
			release: func() { wire.PutInt64(out) }}
	}
	var req MergeRequest
	if status, err := decode(r, &req); err != nil {
		return status, errBody(err)
	}
	out := make([]int64, len(req.A)+len(req.B))
	if status, err := mergeTwo(s, r, req.A, req.B, out); err != nil {
		return status, errBody(err)
	}
	return http.StatusOK, &arrayResult{binary: binOut, ints: out}
}

func (s *Server) handleSort(r *http.Request) (int, any) {
	if status, err := s.admit(); status != 0 {
		return status, errBody(err)
	}
	bf, err := s.requestFormat(r)
	if err != nil {
		return http.StatusUnsupportedMediaType, errBody(err)
	}
	binOut := wantsWire(r)
	if bf == fmtBinary {
		// The frame's single list is sorted into a pooled arena, which
		// the response is encoded straight out of; the frame's own arena
		// holds the sorted runs and goes back to the pool after the
		// round. The large-array path allocates nothing per request.
		f, status, err := s.decodeFrame(r, 1)
		if err != nil {
			return status, errBody(err)
		}
		if f.Type == wire.Float64 {
			data := f.Floats[0]
			out := wire.GetFloat64(len(data))
			if status, err := sortData(s, r, out, data); err != nil {
				return status, errBody(err) // arenas left to the GC, see handleMerge
			}
			f.Release()
			return http.StatusOK, &arrayResult{binary: binOut, isFloat: true, floats: out,
				release: func() { wire.PutFloat64(out) }}
		}
		data := f.Ints[0]
		out := wire.GetInt64(len(data))
		if status, err := sortData(s, r, out, data); err != nil {
			return status, errBody(err)
		}
		f.Release()
		return http.StatusOK, &arrayResult{binary: binOut, ints: out,
			release: func() { wire.PutInt64(out) }}
	}
	var req SortRequest
	if status, err := decode(r, &req); err != nil {
		return status, errBody(err)
	}
	// A null data field answers null, an empty one [].
	var out []int64
	if req.Data != nil {
		out = make([]int64, len(req.Data))
	}
	if status, err := sortData(s, r, out, req.Data); err != nil {
		return status, errBody(err)
	}
	return http.StatusOK, &arrayResult{binary: binOut, ints: out}
}

func (s *Server) handleMergeK(r *http.Request) (int, any) {
	if status, err := s.admit(); status != 0 {
		return status, errBody(err)
	}
	bf, err := s.requestFormat(r)
	if err != nil {
		return http.StatusUnsupportedMediaType, errBody(err)
	}
	binOut := wantsWire(r)
	if bf == fmtBinary {
		f, status, err := s.decodeFrame(r, -1)
		if err != nil {
			return status, errBody(err)
		}
		if f.Type == wire.Float64 {
			dst := wire.GetFloat64(f.Elements())
			status, result, err := mergeKLists(s, r, f.Floats, dst)
			if err != nil {
				return status, errBody(err) // arenas left to the GC, see handleMerge
			}
			f.Release()
			return http.StatusOK, &arrayResult{binary: binOut, isFloat: true, floats: result,
				release: func() { wire.PutFloat64(dst) }}
		}
		dst := wire.GetInt64(f.Elements())
		status, result, err := mergeKLists(s, r, f.Ints, dst)
		if err != nil {
			return status, errBody(err)
		}
		f.Release()
		return http.StatusOK, &arrayResult{binary: binOut, ints: result,
			release: func() { wire.PutInt64(dst) }}
	}
	var req MergeKRequest
	if status, err := decode(r, &req); err != nil {
		return status, errBody(err)
	}
	status, result, err := mergeKLists(s, r, req.Lists, nil)
	if err != nil {
		return status, errBody(err)
	}
	return http.StatusOK, &arrayResult{binary: binOut, ints: result}
}

func (s *Server) handleSetOps(r *http.Request) (int, any) {
	if status, err := s.admit(); status != 0 {
		return status, errBody(err)
	}
	bf, err := s.requestFormat(r)
	if err != nil {
		return http.StatusUnsupportedMediaType, errBody(err)
	}
	if bf == fmtBinary {
		// The setops document carries an op name the bare-array frame
		// cannot express; the request stays JSON (the response side still
		// honours Accept).
		s.m.badMedia.Add(1)
		return http.StatusUnsupportedMediaType, errBody(errNoBinaryForm("setops"))
	}
	var req SetOpsRequest
	if status, err := decode(r, &req); err != nil {
		return status, errBody(err)
	}
	var op func(a, b []int64, p int) []int64
	switch req.Op {
	case "union":
		op = setops.Union[int64]
	case "intersect":
		op = setops.Intersect[int64]
	case "diff":
		op = setops.Diff[int64]
	default:
		return http.StatusBadRequest, errBody(errors.New(`op must be "union", "intersect" or "diff"`))
	}
	if err := CheckSorted("a", req.A); err != nil {
		return http.StatusBadRequest, errBody(err)
	}
	if err := CheckSorted("b", req.B); err != nil {
		return http.StatusBadRequest, errBody(err)
	}
	var result []int64
	a, b := req.A, req.B
	j := s.newJob("setops", r)
	j.elems = len(a) + len(b)
	j.run = func(ctx context.Context, workers int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		result = op(a, b, workers)
		return nil
	}
	if status, err := s.execute(r, j); err != nil {
		return status, errBody(err)
	}
	return http.StatusOK, &arrayResult{binary: wantsWire(r), ints: result}
}

// handleSelect answers diagonal rank selection inline: a pair of binary
// searches is far cheaper than a trip through the queue, and keeping it
// off the pool means rank probes stay fast even when merges are shedding.
func (s *Server) handleSelect(r *http.Request) (int, any) {
	if bf, err := s.requestFormat(r); err != nil {
		return http.StatusUnsupportedMediaType, errBody(err)
	} else if bf == fmtBinary {
		// Select's request carries a rank K the bare-array frame cannot
		// express, and its response is a rank document, not an array.
		s.m.badMedia.Add(1)
		return http.StatusUnsupportedMediaType, errBody(errNoBinaryForm("select"))
	}
	var req SelectRequest
	if status, err := decode(r, &req); err != nil {
		return status, errBody(err)
	}
	if err := CheckSorted("a", req.A); err != nil {
		return http.StatusBadRequest, errBody(err)
	}
	if err := CheckSorted("b", req.B); err != nil {
		return http.StatusBadRequest, errBody(err)
	}
	if req.K < 0 || req.K > len(req.A)+len(req.B) {
		return http.StatusBadRequest, errBody(errors.New("k out of range [0, len(a)+len(b)]"))
	}
	pt := core.SearchDiagonal(req.A, req.B, req.K)
	resp := SelectResponse{ARank: pt.A, BRank: pt.B}
	if req.K >= 1 {
		// The K-th smallest is the last element consumed before the
		// crossing: the larger of the two candidates behind the point.
		var kth int64
		switch {
		case pt.A == 0:
			kth = req.B[pt.B-1]
		case pt.B == 0:
			kth = req.A[pt.A-1]
		default:
			kth = max(req.A[pt.A-1], req.B[pt.B-1])
		}
		resp.Kth = &kth
	}
	return http.StatusOK, resp
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Snapshot())
}

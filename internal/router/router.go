// Package router is the mergepath fleet tier: a scatter-gather HTTP
// front door that multiplexes the /v1 API across N mergepathd backends.
//
// Small requests are routed whole — rendezvous-hashed over the best
// available backend tier with a least-loaded (power-of-two-choices)
// final pick — so one hot key keeps locality without pinning a
// struggling node. Large merges are split with the paper's diagonal
// co-ranking cut (SplitMerge): disjoint, balanced output windows that
// independent backends serve with zero coordination. Each window is a
// contiguous slice of the output, so every sub-merge result is copied
// straight into its place and the response is byte-identical to a
// single node's with no merge after the fan-out.
//
// Every backend is driven through its own internal/resilience client
// (jittered retries honoring Retry-After, a retry budget, per-endpoint
// circuit breakers), and a poller watches each backend's /healthz so
// overload state (healthy/degraded/shedding), element backlog and drain
// rate steer routing before errors ever happen: brownout on one node
// diverts traffic instead of failing requests. The router exposes the
// same operational surface as the node daemon — /healthz, /metrics,
// /metrics/prom — with route/forward/scatter lifecycle spans on
// Server-Timing.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"mime"
	"net/http"
	"strings"
	"time"

	"mergepath/internal/promtext"
	"mergepath/internal/resilience"
	"mergepath/internal/server"
	"mergepath/internal/wire"
)

// Router lifecycle stage names, surfaced on Server-Timing, /metrics and
// /metrics/prom exactly like the node daemon's stages (all wall time).
const (
	// StageDecode is request-body read (and, for scatterable merges,
	// JSON parse + sortedness check).
	StageDecode = "decode"
	// StageRoute is backend selection: tier filtering, rendezvous
	// hashing and the least-loaded pick.
	StageRoute = "route"
	// StageForward is the whole-request backend round trip, failover
	// included.
	StageForward = "forward"
	// StageScatter is the fan-out: all sub-merge round trips, each
	// result copied into its output window, measured as wall time from
	// first send to last response.
	StageScatter = "scatter"
	// StageWrite is response serialization.
	StageWrite = "write"
)

// stageNames is the fixed stage key set, in lifecycle order.
var stageNames = []string{
	StageDecode, StageRoute, StageForward, StageScatter, StageWrite,
}

// StageNames returns the router lifecycle stage keys in order. Callers
// own the returned slice.
func StageNames() []string { return append([]string(nil), stageNames...) }

// Config shapes the router. Zero values select the documented defaults;
// Backends is the only required field.
type Config struct {
	// Backends is the mergepathd base URLs fronted by this router.
	Backends []string
	// HealthInterval is the /healthz poll period per backend.
	// Default 250ms.
	HealthInterval time.Duration
	// HealthTimeout bounds one health poll. Default 1s.
	HealthTimeout time.Duration
	// ScatterThreshold is the smallest total element count
	// (len(a)+len(b)) at which a /v1/merge request is split across
	// backends instead of routed whole. Default 1<<17.
	ScatterThreshold int
	// MaxScatter caps the scatter fan-out (windows per request).
	// Default 8, clamped to the backend count at pick time.
	MaxScatter int
	// MaxBodyBytes caps request bodies; beyond it the router answers
	// 413 without touching a backend. Default 32 MiB (larger than the
	// node default: the router exists to take requests one node
	// would rather not).
	MaxBodyBytes int64
	// RequestTimeout bounds one routed request end to end, sub-request
	// retries and failover included. Default 15s.
	RequestTimeout time.Duration
	// Resilience tunes each backend's client stack (retries, backoff,
	// budget, hedging, breaker). Zero values select that package's
	// defaults plus MaxRetries=1 — one retry on the same backend before
	// the router fails over to a different one.
	Resilience resilience.Config
	// Transport, when non-nil, overrides the shared *http.Client the
	// per-backend resilience clients wrap (tests inject the in-process
	// listener's client). Nil selects a 10s-timeout default.
	Transport *http.Client
	// AccessLog, when true, writes one structured log line per finished
	// request with its ID, endpoint, status and span timings.
	AccessLog bool
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.ScatterThreshold <= 0 {
		c.ScatterThreshold = 1 << 17
	}
	if c.MaxScatter <= 0 {
		c.MaxScatter = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.Resilience.MaxRetries == 0 {
		c.Resilience.MaxRetries = 1
	}
	return c
}

// Router is the scatter-gather routing tier. It is an http.Handler;
// pair it with an http.Server for transport and call Close on shutdown.
type Router struct {
	cfg Config
	reg *registry
	m   *metrics
	mux *http.ServeMux
}

// New starts a Router: backends are polled once synchronously so the
// first request routes on real state, then the poller continues in the
// background until Close.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: at least one backend URL is required")
	}
	hc := cfg.Transport
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	rt := &Router{cfg: cfg, m: newMetrics(), mux: http.NewServeMux()}
	seed := cfg.Resilience.Seed
	rt.reg = newRegistry(cfg.Backends, cfg.HealthInterval, cfg.HealthTimeout, func(u string) *resilience.Client {
		rc := cfg.Resilience
		// Decorrelate the per-backend jitter RNGs while keeping runs
		// reproducible under one configured seed.
		h := fnv.New64a()
		h.Write([]byte(u))
		rc.Seed = seed + int64(h.Sum64()&0x7fffffff)
		return resilience.New(hc, rc)
	})
	rt.mux.HandleFunc("POST /v1/merge", rt.route("merge", rt.handleMerge))
	rt.mux.HandleFunc("POST /v1/sort", rt.route("sort", rt.forwardHandler("/v1/sort")))
	rt.mux.HandleFunc("POST /v1/mergek", rt.route("mergek", rt.forwardHandler("/v1/mergek")))
	rt.mux.HandleFunc("POST /v1/setops", rt.route("setops", rt.forwardHandler("/v1/setops")))
	rt.mux.HandleFunc("POST /v1/select", rt.route("select", rt.forwardHandler("/v1/select")))
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /metrics/prom", promtext.Handler(PromMetrics, func() any { return rt.Snapshot() }))
	rt.reg.start()
	return rt, nil
}

// ServeHTTP implements http.Handler by dispatching to the router mux.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the health poller. In-flight requests finish normally
// (shut the http.Server down first, as with the node daemon).
func (rt *Router) Close() { rt.reg.close() }

// Snapshot returns the current /metrics document.
func (rt *Router) Snapshot() MetricsSnapshot { return rt.m.snapshot(rt.reg) }

// reply is one handler's outcome: either a raw backend passthrough
// (body non-nil) or an object the envelope JSON-encodes.
type reply struct {
	status     int
	obj        any    // encoded when body is nil
	body       []byte // raw passthrough from a backend
	ctype      string // body's Content-Type; empty means application/json
	retryAfter string // Retry-After to surface (backend-quoted)
	timing     string // backend Server-Timing to append to ours
	backendID  string // X-Request-Id minted downstream, if any
}

// route wraps an endpoint handler with the shared envelope: request-ID
// assignment, per-stage tracing, response write, Server-Timing
// exposition, per-endpoint metrics, and the optional access log.
func (rt *Router) route(endpoint string, h func(*http.Request, *server.Trace) *reply) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = server.NextRequestID()
		}
		tr := server.NewTrace(id, start)
		r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
		r.Header.Set("X-Request-Id", id)
		rep := h(r, tr)
		ct := rep.ctype
		if ct == "" {
			ct = "application/json"
		}
		w.Header().Set("Content-Type", ct)
		w.Header().Set("X-Request-Id", id)
		st := tr.ServerTiming()
		if rep.timing != "" {
			// The backend's own spans ride along after the router's, so a
			// client sees the whole path: route/forward here, then
			// decode/queue_wait/merge/... from the node that served it.
			if st != "" {
				st += ", "
			}
			st += rep.timing
		}
		if st != "" {
			w.Header().Set("Server-Timing", st)
		}
		if rep.retryAfter != "" {
			w.Header().Set("Retry-After", rep.retryAfter)
		}
		wstart := time.Now()
		w.WriteHeader(rep.status)
		if rep.body != nil {
			_, _ = w.Write(rep.body)
		} else {
			_ = json.NewEncoder(w).Encode(rep.obj)
		}
		tr.Span(StageWrite, wstart)
		total := time.Since(start)
		rt.m.req.Observe(endpoint, rep.status, total)
		rt.m.req.ObserveSpans(tr.Spans())
		if rt.cfg.AccessLog {
			log.Print("router: ", tr.LogLine(endpoint, rep.status, total))
		}
	}
}

// errReply builds a JSON error reply in the node daemon's envelope.
func errReply(status int, err error) *reply {
	return &reply{status: status, obj: server.ErrorResponse{Error: err.Error()}}
}

// readBody slurps the (size-capped) request body, distinguishing
// oversized (413) from transport trouble (400). Callers record the
// decode span so each request gets exactly one, covering read plus
// whatever parsing the endpoint does on top.
func readBody(r *http.Request) ([]byte, *reply) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errReply(http.StatusRequestEntityTooLarge, errors.New("request body exceeds limit"))
		}
		return nil, errReply(http.StatusBadRequest, err)
	}
	return raw, nil
}

// bodyKey is the rendezvous routing key: a content hash, so identical
// request bodies land on the same backend (page-cache and
// response-cache affinity) while the overall spread stays uniform.
func bodyKey(raw []byte) uint64 {
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

// fwdHeaders assembles the headers forwarded to a backend: the
// correlation ID (suffixed per sub-request by the scatter path) and the
// client's deadline preference.
func fwdHeaders(r *http.Request, id string) http.Header {
	hdr := http.Header{}
	hdr.Set("X-Request-Id", id)
	if v := r.Header.Get("X-Timeout-Ms"); v != "" {
		hdr.Set("X-Timeout-Ms", v)
	}
	return hdr
}

// mediaTypeIs reports whether header value v names media type want,
// ignoring parameters and case.
func mediaTypeIs(v, want string) bool {
	mt, _, err := mime.ParseMediaType(v)
	return err == nil && mt == want
}

// wireRequest reports whether the client posted a binary frame.
func wireRequest(r *http.Request) bool {
	return mediaTypeIs(r.Header.Get("Content-Type"), wire.ContentType)
}

// wantsWire reports whether the client's Accept header asks for a
// binary frame response. Same lenient policy as the node daemon: any
// unparseable or unknown Accept falls back to JSON, never 406.
func wantsWire(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if mediaTypeIs(strings.TrimSpace(part), wire.ContentType) {
			return true
		}
	}
	return false
}

// backendResult is one backend call's outcome with the body drained, so
// connections are reused and failover can freely discard it.
type backendResult struct {
	status int
	body   []byte
	header http.Header
}

// retryableStatus reports whether a backend's final status still means
// "another backend might do better": the resilience client already
// spent its retries on this backend before handing this back.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// postBackend performs one resilient call to a backend and fully reads
// the response, folding the outcome into the backend's counters. ctype
// is the request body's Content-Type — JSON for legacy backends, the
// binary frame for wire-speaking hops.
func (rt *Router) postBackend(ctx context.Context, b *backend, path, ctype string, hdr http.Header, body []byte) (*backendResult, error) {
	b.requests.Add(1)
	resp, err := b.client.PostHeaders(ctx, b.url+path, ctype, hdr, body)
	if err != nil {
		b.errors.Add(1)
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		b.errors.Add(1)
		return nil, err
	}
	if retryableStatus(resp.StatusCode) {
		b.errors.Add(1)
	}
	return &backendResult{status: resp.StatusCode, body: buf, header: resp.Header}, nil
}

// forwardHandler builds the whole-request handler for one /v1 path.
func (rt *Router) forwardHandler(path string) func(*http.Request, *server.Trace) *reply {
	return func(r *http.Request, tr *server.Trace) *reply {
		t0 := time.Now()
		raw, rep := readBody(r)
		tr.Span(StageDecode, t0)
		if rep != nil {
			return rep
		}
		return rt.forwardWhole(r, tr, path, raw)
	}
}

// forwardWhole routes one request to a single backend, failing over to
// a different backend once if the pick's resilient client could not get
// a useful answer (transport error or a still-retryable status). The
// client's Content-Type and Accept pass through untouched — the
// backend negotiates the format exactly as if it were hit directly —
// and binary-frame requests prefer wire-speaking backends so a
// mixed-version fleet routes them where they can succeed.
func (rt *Router) forwardWhole(r *http.Request, tr *server.Trace, path string, raw []byte) *reply {
	key := bodyKey(raw)
	preferWire := wireRequest(r)
	t0 := time.Now()
	first := rt.reg.pickWhole(key, nil, preferWire)
	tr.Span(StageRoute, t0)
	if first == nil {
		rt.m.failed.Add(1)
		return errReply(http.StatusServiceUnavailable, errors.New("no backends available"))
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	hdr := fwdHeaders(r, r.Header.Get("X-Request-Id"))
	if a := r.Header.Get("Accept"); a != "" {
		hdr.Set("Accept", a)
	}
	ctype := r.Header.Get("Content-Type")
	if ctype == "" {
		ctype = "application/json"
	}
	fstart := time.Now()
	res, err := rt.postBackend(ctx, first, path, ctype, hdr, raw)
	if (err != nil || retryableStatus(res.status)) && ctx.Err() == nil {
		if second := rt.reg.pickWhole(key, first, preferWire); second != nil && second != first {
			rt.m.rerouted.Add(1)
			res2, err2 := rt.postBackend(ctx, second, path, ctype, hdr, raw)
			// Keep the better outcome: any response beats an error, a
			// conclusive status beats a retryable one.
			switch {
			case err2 == nil && (err != nil || !retryableStatus(res2.status) || retryableStatus(res.status)):
				res, err = res2, nil
			case err2 == nil && res == nil:
				res, err = res2, nil
			}
		}
	}
	tr.Span(StageForward, fstart)
	if err != nil {
		rt.m.failed.Add(1)
		return errReply(http.StatusBadGateway, fmt.Errorf("backend unavailable: %w", err))
	}
	rt.m.routed.Add(1)
	rep := &reply{status: res.status, body: res.body,
		ctype: res.header.Get("Content-Type"), timing: res.header.Get("Server-Timing")}
	if ra := res.header.Get("Retry-After"); ra != "" &&
		(res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable) {
		rep.retryAfter = ra
	}
	return rep
}

// handleMerge decides between whole routing and the co-ranking scatter
// for one /v1/merge request. Both request formats scatter: a binary
// frame is decoded into the same (a, b) view a JSON body yields. Float
// frames and anything else the scatter path has no cut for route whole
// — the backend negotiates those exactly as if hit directly.
func (rt *Router) handleMerge(r *http.Request, tr *server.Trace) *reply {
	t0 := time.Now()
	raw, rep := readBody(r)
	if rep != nil {
		tr.Span(StageDecode, t0)
		return rep
	}
	var req server.MergeRequest
	if wireRequest(r) {
		fr, err := wire.Decode(bytes.NewReader(raw), wire.Limits{MaxElements: int(rt.cfg.MaxBodyBytes / 8)})
		if err != nil {
			tr.Span(StageDecode, t0)
			if errors.Is(err, wire.ErrTooLarge) {
				return errReply(http.StatusRequestEntityTooLarge, err)
			}
			return errReply(http.StatusBadRequest, err)
		}
		defer fr.Release()
		if fr.Type != wire.Int64 || fr.Lists() != 2 {
			// Float merges (or frames a backend will reject anyway) are
			// not scatterable here; let one node answer authoritatively.
			tr.Span(StageDecode, t0)
			return rt.forwardWhole(r, tr, "/v1/merge", raw)
		}
		req.A, req.B = fr.Ints[0], fr.Ints[1]
	} else if ct := r.Header.Get("Content-Type"); ct != "" &&
		!mediaTypeIs(ct, "application/json") && !mediaTypeIs(ct, "text/json") {
		// Unknown media type: not ours to parse. Forward whole so the
		// client gets the node's own 415, not a confusing parse error.
		tr.Span(StageDecode, t0)
		return rt.forwardWhole(r, tr, "/v1/merge", raw)
	} else if err := json.Unmarshal(raw, &req); err != nil {
		tr.Span(StageDecode, t0)
		return errReply(http.StatusBadRequest, err)
	}
	total := len(req.A) + len(req.B)
	if total < rt.cfg.ScatterThreshold {
		tr.Span(StageDecode, t0)
		return rt.forwardWhole(r, tr, "/v1/merge", raw)
	}
	// The split searches assume sorted inputs; garbage in would scatter
	// into windows whose sub-merges can silently succeed. Run the node's
	// own check, a then b as the node does, so the router's 400 is the
	// node's byte for byte instead of a wrong 200 — the scan is O(n) but
	// so is the node-side check it replaces.
	err := server.CheckSorted("a", req.A)
	if err == nil {
		err = server.CheckSorted("b", req.B)
	}
	if err != nil {
		tr.Span(StageDecode, t0)
		return errReply(http.StatusBadRequest, err)
	}
	tr.Span(StageDecode, t0)
	return rt.scatterMerge(r, tr, req, raw)
}

// scatterMerge splits a large merge across backends with the diagonal
// co-ranking cut and runs the sub-merges concurrently (with per-window
// failover), each writing its own slice of the response.
func (rt *Router) scatterMerge(r *http.Request, tr *server.Trace, req server.MergeRequest, raw []byte) *reply {
	t0 := time.Now()
	backs := rt.reg.pickScatter(rt.cfg.MaxScatter)
	tr.Span(StageRoute, t0)
	if len(backs) < 2 {
		// A one-node fleet (or one survivor) cannot scatter usefully;
		// route whole and let that node's own pool parallelize.
		return rt.forwardWhole(r, tr, "/v1/merge", raw)
	}
	windows := SplitMerge(req.A, req.B, len(backs))
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	id := r.Header.Get("X-Request-Id")

	sstart := time.Now()
	out := make([]int64, len(req.A)+len(req.B))
	errs := make([]error, len(windows))
	done := make(chan int, len(windows))
	lo := 0
	for i, w := range windows {
		dst := out[lo : lo+w.Len()]
		lo += w.Len()
		go func(i int, w Window) {
			errs[i] = rt.mergeWindow(ctx, r, id, i, req, w, backs, dst)
			done <- i
		}(i, w)
	}
	for range windows {
		<-done
	}
	tr.Span(StageScatter, sstart)
	for _, err := range errs {
		if err != nil {
			rt.m.failed.Add(1)
			return errReply(http.StatusBadGateway, fmt.Errorf("scatter failed: %w", err))
		}
	}
	rt.m.noteScatter(len(windows))
	if wantsWire(r) {
		return &reply{status: http.StatusOK, ctype: wire.ContentType, body: wire.AppendInt64(nil, out)}
	}
	return &reply{status: http.StatusOK, obj: server.MergeResponse{Result: out}}
}

// mergeWindow executes one scatter window into dst, the window's slice
// of the response: its primary backend is chosen round-robin by window
// index, and on failure every other scatter participant is tried before
// the window (and with it the whole request) is declared failed. Each
// hop is encoded in the best format that backend advertises — the
// binary frame when its /healthz lists it, JSON otherwise — so a
// mixed-version fleet degrades per hop.
func (rt *Router) mergeWindow(ctx context.Context, r *http.Request, id string, i int, req server.MergeRequest, w Window, backs []*backend, dst []int64) error {
	subA, subB := req.A[w.ALo:w.AHi], req.B[w.BLo:w.BHi]
	var jsonBody, wireBody []byte // lazily encoded, at most once each
	hdr := fwdHeaders(r, fmt.Sprintf("%s-s%d", id, i))
	var lastErr error
	for attempt := 0; attempt < len(backs); attempt++ {
		if ctx.Err() != nil {
			break
		}
		b := backs[(i+attempt)%len(backs)]
		if attempt > 0 {
			rt.m.rerouted.Add(1)
		}
		body, ctype := jsonBody, "application/json"
		if b.speaksWire() {
			if wireBody == nil {
				wireBody = wire.AppendInt64(nil, subA, subB)
			}
			body, ctype = wireBody, wire.ContentType
			hdr.Set("Accept", wire.ContentType)
			rt.m.binaryHops.Add(1)
		} else {
			if jsonBody == nil {
				var err error
				if jsonBody, err = json.Marshal(server.MergeRequest{A: subA, B: subB}); err != nil {
					return err
				}
			}
			body = jsonBody
			hdr.Set("Accept", "application/json")
		}
		res, err := rt.postBackend(ctx, b, "/v1/merge", ctype, hdr, body)
		if err != nil {
			lastErr = err
			continue
		}
		if res.status != http.StatusOK {
			lastErr = fmt.Errorf("backend %s: window %d status %d", b.url, i, res.status)
			continue
		}
		if err := decodeSubMerge(res, dst); err != nil {
			lastErr = fmt.Errorf("backend %s: window %d: %w", b.url, i, err)
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return lastErr
}

// decodeSubMerge copies the sorted partial of one sub-merge response,
// in whichever format the backend chose, into dst. dst is written only
// once the partial is known to be exactly len(dst) elements, so a
// failed attempt leaves it for the next backend. The frame path copies
// straight out of the pooled arena, which goes back to the pool on
// return.
func decodeSubMerge(res *backendResult, dst []int64) error {
	var result []int64
	if mediaTypeIs(res.header.Get("Content-Type"), wire.ContentType) {
		fr, err := wire.Decode(bytes.NewReader(res.body), wire.Limits{})
		if err != nil {
			return err
		}
		defer fr.Release()
		if fr.Type != wire.Int64 || fr.Lists() != 1 {
			return fmt.Errorf("sub-merge frame: type %d with %d lists, want one int64 list", fr.Type, fr.Lists())
		}
		result = fr.Ints[0]
	} else {
		var mr server.MergeResponse
		if err := json.Unmarshal(res.body, &mr); err != nil {
			return err
		}
		result = mr.Result
	}
	if len(result) != len(dst) {
		return fmt.Errorf("returned %d elements, want %d", len(result), len(dst))
	}
	copy(dst, result)
	return nil
}

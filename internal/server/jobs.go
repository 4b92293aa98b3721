package server

import (
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	"mergepath/internal/jobs"
)

// The dataset/jobs API: the request/response endpoints above move at most
// MaxBodyBytes per call, while these endpoints exist for inputs that
// don't fit — a dataset is streamed to a spill file once, then sorted
// out-of-core by an asynchronous job under a hard memory budget
// (internal/jobs + internal/extsort), with the client polling progress
// and streaming the result when done.
//
//	POST   /v1/datasets           octet-stream upload -> 201 dataset doc
//	GET    /v1/datasets/{id}      dataset doc
//	DELETE /v1/datasets/{id}      204
//	POST   /v1/jobs               {"type":"sortfile","dataset":id} -> 202 job doc
//	GET    /v1/jobs/{id}          job doc (state, progress, spans, stats)
//	DELETE /v1/jobs/{id}          cancel -> job doc
//	GET    /v1/jobs/{id}/result   octet-stream sorted records

// JobRequest is the POST /v1/jobs body.
type JobRequest struct {
	// Type is the job type; "sortfile" is the only one today.
	Type string `json:"type"`
	// Dataset is the input dataset's ID from POST /v1/datasets.
	Dataset string `json:"dataset"`
}

// jobRoutes registers the dataset/jobs endpoints on the mux.
func (s *Server) jobRoutes() {
	s.mux.HandleFunc("POST /v1/datasets", s.rawRoute("datasets", s.handleDatasetCreate))
	s.mux.HandleFunc("GET /v1/datasets/{id}", s.route("datasets", s.handleDatasetGet))
	s.mux.HandleFunc("DELETE /v1/datasets/{id}", s.route("datasets", s.handleDatasetDelete))
	s.mux.HandleFunc("POST /v1/jobs", s.route("jobs", s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.route("jobs", s.handleJobGet))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.route("jobs", s.handleJobCancel))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.rawRoute("jobs", s.handleJobResult))
}

// rawRoute is the route() envelope for endpoints that stream raw bytes
// instead of JSON bodies: request-ID assignment, per-endpoint metrics and
// the optional access log, but no body cap (dataset uploads are exactly
// the requests MaxBodyBytes exists to keep off the JSON path) and no
// response encoding — the handler writes its own response and returns
// the status it sent.
func (s *Server) rawRoute(endpoint string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = nextRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		status := h(w, r)
		total := time.Since(start)
		s.m.req.Observe(endpoint, status, total)
		if s.cfg.AccessLog {
			log.Print("server: id=", id, " endpoint=", endpoint,
				" status=", status, " total_ms=", total.Milliseconds())
		}
	}
}

// writeJSON emits a JSON response from a rawRoute handler.
func writeJSON(w http.ResponseWriter, status int, body any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
	return status
}

// jobsErrStatus maps internal/jobs errors onto HTTP statuses.
func jobsErrStatus(err error) int {
	switch {
	case errors.Is(err, jobs.ErrUnknownJob), errors.Is(err, jobs.ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, jobs.ErrBadType), errors.Is(err, jobs.ErrBadLength):
		return http.StatusBadRequest
	case errors.Is(err, jobs.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, jobs.ErrNotDone), errors.Is(err, jobs.ErrTerminal):
		return http.StatusConflict
	case errors.Is(err, jobs.ErrBusy), errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) int {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(s.ctrl.RetryAfterSeconds()))
		// Shedding without touching the upload kills the keep-alive
		// connection; drain a bounded slice of it first (same policy as
		// the route() envelope's error path).
		drainBody(r)
		return writeJSON(w, http.StatusServiceUnavailable, errBody(ErrDraining))
	}
	ds, err := s.jobs.CreateDataset(r.Body)
	if err != nil {
		drainBody(r)
		return writeJSON(w, jobsErrStatus(err), errBody(err))
	}
	return writeJSON(w, http.StatusCreated, ds)
}

func (s *Server) handleDatasetGet(r *http.Request) (int, any) {
	ds, ok := s.jobs.GetDataset(r.PathValue("id"))
	if !ok {
		return http.StatusNotFound, errBody(jobs.ErrUnknownDataset)
	}
	return http.StatusOK, ds
}

func (s *Server) handleDatasetDelete(r *http.Request) (int, any) {
	if err := s.jobs.DeleteDataset(r.PathValue("id")); err != nil {
		return jobsErrStatus(err), errBody(err)
	}
	return http.StatusOK, struct{}{}
}

// handleJobSubmit admits a job through the same two-layer gate as
// synchronous requests: drain check, adaptive overload controller (429 —
// a multi-pass external sort is exactly the elephant the controller's
// element backlog should know about), then the manager's own bounded
// queue (503).
func (s *Server) handleJobSubmit(r *http.Request) (int, any) {
	if status, err := s.admit(); status != 0 {
		return status, errBody(err)
	}
	var req JobRequest
	if status, err := decode(r, &req); err != nil {
		return status, errBody(err)
	}
	v, err := s.jobs.Submit(req.Type, req.Dataset)
	if err != nil {
		if errors.Is(err, jobs.ErrBusy) {
			s.m.shed.Add(1)
		}
		return jobsErrStatus(err), errBody(err)
	}
	return http.StatusAccepted, v
}

func (s *Server) handleJobGet(r *http.Request) (int, any) {
	v, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		return http.StatusNotFound, errBody(jobs.ErrUnknownJob)
	}
	return http.StatusOK, v
}

func (s *Server) handleJobCancel(r *http.Request) (int, any) {
	id := r.PathValue("id")
	if err := s.jobs.Cancel(id); err != nil {
		return jobsErrStatus(err), errBody(err)
	}
	v, _ := s.jobs.Get(id)
	return http.StatusOK, v
}

// handleJobResult streams a finished job's sorted records. The 200 is
// committed before the copy starts, so a stream that dies mid-body
// cannot change the client-visible status — but it must not be
// *recorded* as a success either: aborts are logged, counted in
// jobs_result_aborts_total, and classified for metrics as 499 (client
// went away) or 500 (the spill file failed under us).
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) int {
	id := r.PathValue("id")
	rc, size, err := s.jobs.OpenResult(id)
	if err != nil {
		return writeJSON(w, jobsErrStatus(err), errBody(err))
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	n, err := io.Copy(w, rc)
	if err == nil && n == size {
		return http.StatusOK
	}
	s.jobs.NoteResultAbort()
	if r.Context().Err() != nil {
		// The write failed because the client disconnected mid-download —
		// their choice, not a server failure.
		log.Printf("server: job %s result aborted by client after %d/%d bytes", id, n, size)
		return StatusClientClosedRequest
	}
	// Either the source read failed or it ended short of the size the
	// job recorded — both mean the stored result is suspect.
	log.Printf("server: job %s result stream failed after %d/%d bytes: %v", id, n, size, err)
	return http.StatusInternalServerError
}

package main

import (
	"sync"
	"time"
)

// span is one timed call recorded by the traced run: a call into a
// layer, or a client request with the daemon's stages as children.
// Spans of one request share Req.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Req    string  `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the tracer started
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory; they are written out once, at the end
// of the run. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID, for children to name as parent.
func (t *tracer) add(parent int, req, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: float64(start.Sub(t.t0)) / 1e3, End: float64(end.Sub(t.t0)) / 1e3})
	return id
}

// begin opens a span that finish closes, so that it can be named as
// the parent of spans recorded before it ends.
func (t *tracer) begin(parent int, req, name string) int {
	now := time.Now()
	return t.add(parent, req, name, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	end := float64(time.Since(t.t0)) / 1e3
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// call runs fn as a span and returns its duration.
func (t *tracer) call(parent int, req, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, req, name, start, end)
	return end.Sub(start)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeJSON(path, t.spans)
}

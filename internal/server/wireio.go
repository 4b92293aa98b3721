package server

import (
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"time"

	"mergepath/internal/wire"
)

// Content negotiation for the /v1 array endpoints. JSON is the default
// and compatibility path; the binary frame (internal/wire,
// application/x-mergepath-frame) is selected per request via
// Content-Type and per response via Accept, independently — a client
// may upload binary and read JSON or vice versa. Unknown request media
// types get 415; unknown Accept values fall back to JSON (the lenient
// reading of Accept, so curl without headers keeps working).

// bodyFormat identifies the negotiated encoding of one request or
// response body.
type bodyFormat int

const (
	fmtJSON bodyFormat = iota
	fmtBinary
)

// String names the format the way metrics label it.
func (f bodyFormat) String() string {
	if f == fmtBinary {
		return "binary"
	}
	return "json"
}

// requestFormat classifies the request body by Content-Type and counts
// it. An empty Content-Type means JSON (the pre-negotiation contract);
// anything neither JSON nor the frame type is a 415-worthy error.
func (s *Server) requestFormat(r *http.Request) (bodyFormat, error) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		s.m.reqJSON.Add(1)
		return fmtJSON, nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		s.m.badMedia.Add(1)
		return 0, fmt.Errorf("unparseable Content-Type %q: %v", ct, err)
	}
	switch mt {
	case "application/json", "text/json":
		s.m.reqJSON.Add(1)
		return fmtJSON, nil
	case wire.ContentType:
		s.m.reqBinary.Add(1)
		return fmtBinary, nil
	}
	s.m.badMedia.Add(1)
	return 0, fmt.Errorf("unsupported Content-Type %q: this endpoint speaks application/json and %s", mt, wire.ContentType)
}

// errNoBinaryForm rejects a binary request body on the endpoints whose
// request document cannot be expressed as bare arrays (setops carries
// an op, select carries a rank).
func errNoBinaryForm(endpoint string) error {
	return fmt.Errorf("%s has no binary request form; send application/json (Accept may still pick %s for the response)", endpoint, wire.ContentType)
}

// wantsWire reports whether the client's Accept header asks for the
// binary frame. Absent or other Accept values select JSON; there is no
// 406 path — a client that can name the frame type can also parse JSON.
func wantsWire(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err == nil && mt == wire.ContentType {
			return true
		}
	}
	return false
}

// wireFormats is the Formats advertisement on /healthz: the body media
// types this build accepts on /v1. The router gates binary scatter hops
// on seeing wire.ContentType here.
func wireFormats() []string { return []string{"application/json", wire.ContentType} }

// arrayResult is the 200 body of an array endpoint (merge, sort,
// mergek, setops): one result list plus how to encode it and which
// pooled buffers to return once the response is on the wire. route()
// writes it as a binary frame when the client Accepted one, else as the
// canonical JSON {"result": ...} document — byte-identical to the
// MergeResponse/SortResponse/... encodings it replaces.
type arrayResult struct {
	binary  bool // encode as a wire frame (client Accepted it)
	isFloat bool // floats is the payload rather than ints
	ints    []int64
	floats  []float64
	release func() // returns pooled buffers; nil when nothing is pooled
}

// free returns the result's pooled buffers (idempotent).
func (ar *arrayResult) free() {
	if ar.release != nil {
		ar.release()
		ar.release = nil
	}
}

// maxDrainBytes bounds how much unread request body the server consumes
// before an error or shed response. Reading the remainder keeps the
// keep-alive connection reusable — exactly what an overloaded server
// wants, since 429 retries on fresh connections would add handshake
// load — while the bound keeps a huge abandoned upload from being
// streamed through for nothing (net/http closes the connection itself
// when more than that remains).
const maxDrainBytes = 1 << 20

// drainBody consumes a bounded remainder of the request body.
func drainBody(r *http.Request) {
	_, _ = io.CopyN(io.Discard, r.Body, maxDrainBytes)
}

// decodeFrame reads a binary-frame request body into pooled arenas,
// recording the decode span. Failures map like the JSON path's: bodies
// over the byte cap or frames over the element limit are 413, malformed
// frames 400. A float64 frame carrying a NaN is also 400: NaN has no
// place in the total order every kernel merges by (JSON cannot carry
// one either), so it is refused here instead of yielding a wrong
// multiset later. want is the exact list count the endpoint requires
// (negative = any). On success the caller owns the frame and must
// Release it.
func (s *Server) decodeFrame(r *http.Request, want int) (*wire.Frame, int, error) {
	// The decode span covers the NaN scan too: it is part of reading
	// the request, not of the round.
	defer traceFrom(r.Context()).span(StageDecode, time.Now())
	f, err := wire.Decode(r.Body, wire.Limits{MaxElements: int(s.cfg.MaxBodyBytes / 8)})
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, errors.New("request body exceeds limit")
		}
		if errors.Is(err, wire.ErrTooLarge) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	if want >= 0 && f.Lists() != want {
		f.Release()
		return nil, http.StatusBadRequest, fmt.Errorf("frame carries %d lists; this endpoint takes exactly %d", f.Lists(), want)
	}
	for i, list := range f.Floats {
		if j := indexNaN(list); j >= 0 {
			f.Release()
			return nil, http.StatusBadRequest, fmt.Errorf("frame list %d carries NaN at element %d; float64 inputs must be NaN-free", i, j)
		}
	}
	return f, 0, nil
}

// indexNaN returns the index of the first NaN in s, or -1.
func indexNaN(s []float64) int {
	for i, x := range s {
		if x != x {
			return i
		}
	}
	return -1
}

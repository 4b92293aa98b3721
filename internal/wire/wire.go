// Package wire defines the mergepath binary frame: the length-prefixed
// little-endian wire format negotiated on the /v1 endpoints via
// Content-Type/Accept (see docs/WIRE.md for the byte-level spec).
//
// JSON decode is a top-two latency stage on the service (parsing numbers
// costs more than merging them; EXPERIMENTS X16), so the frame carries
// int64/float64 arrays as raw little-endian payloads behind an 8-byte
// header and a per-list length table. Decode sizes one
// sync.Pool-recycled arena from the validated length table — a frame
// with k lists costs one pooled allocation, not k — and, on a
// little-endian host, reads the whole payload straight into the arena's
// bytes with one io.ReadFull (internal/lebytes). Encode writes the
// header and length table in one Write and then each list's own bytes
// in one Write each, with no intermediate buffer. Any other host keeps
// the portable path: the payload moves through a pooled 64 KiB chunk,
// converted one element at a time, and yields the same bytes. Callers
// return arenas with Frame.Release / PutInt64 / PutFloat64 once the
// response is written.
//
// Layout (all integers little-endian):
//
//	offset 0  4 bytes  magic "MPW1"
//	offset 4  1 byte   version (1)
//	offset 5  1 byte   element type: 1 = int64, 2 = float64
//	offset 6  uint16   list count n
//	offset 8  n×uint64 per-list element counts
//	then      payload  lists concatenated, 8 bytes per element
//
// Decode validates the length table against Limits before allocating
// anything, so a hostile 8-byte header cannot demand gigabytes, and it
// rejects trailing bytes after the payload — a frame is the whole body,
// exactly, mirroring the JSON path's trailing-garbage check.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"mergepath/internal/lebytes"
)

// ContentType is the MIME type that selects the binary frame on the /v1
// endpoints (request via Content-Type, response via Accept).
const ContentType = "application/x-mergepath-frame"

// Version is the only frame version this package reads and writes.
const Version = 1

// Type identifies the element encoding of a frame's payload.
type Type byte

// Element types. Every list in a frame shares one type.
const (
	// Int64 payloads are two's-complement little-endian int64 values.
	Int64 Type = 1
	// Float64 payloads are IEEE-754 binary64 values, little-endian.
	Float64 Type = 2
)

// String names the type for errors and logs.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	default:
		return fmt.Sprintf("type(%d)", byte(t))
	}
}

func (t Type) valid() bool { return t == Int64 || t == Float64 }

// headerSize is the fixed prefix before the length table.
const headerSize = 8

// magic is the first four body bytes of every frame.
var magic = [4]byte{'M', 'P', 'W', '1'}

// Decode error classes. Decode wraps them with detail; match with
// errors.Is. All of them are client errors (a malformed or oversized
// frame), never internal failures.
var (
	// ErrMagic reports a body that is not a mergepath frame at all.
	ErrMagic = errors.New("wire: bad magic (not a mergepath frame)")
	// ErrVersion reports a frame version this build does not speak.
	ErrVersion = errors.New("wire: unsupported frame version")
	// ErrType reports an element type byte outside {int64, float64}.
	ErrType = errors.New("wire: unknown element type")
	// ErrTooLarge reports a length table demanding more elements than
	// Limits allows; nothing was allocated.
	ErrTooLarge = errors.New("wire: frame exceeds element limit")
	// ErrTruncated reports a body that ended before header + length
	// table + payload were complete.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrTrailing reports bytes after the declared payload: the frame
	// must be the entire body.
	ErrTrailing = errors.New("wire: trailing bytes after frame payload")
	// ErrTooManyLists reports an Encode call with more lists than the
	// uint16 list-count field can carry.
	ErrTooManyLists = errors.New("wire: too many lists for one frame")
)

// DefaultMaxElements bounds decode when Limits.MaxElements is zero:
// 2^27 elements = 1 GiB of payload.
const DefaultMaxElements = 1 << 27

// Limits bounds what Decode will allocate. The length table is
// validated against it before the arena is sized, so the limit also
// caps the damage of an absurd-length header on a tiny body.
type Limits struct {
	// MaxElements caps the total element count across all lists of one
	// frame. Zero selects DefaultMaxElements.
	MaxElements int
}

// Frame is one decoded message: n lists sharing one element type. The
// non-nil one of Ints/Floats holds the lists; all of them alias a
// single pooled arena, so the caller must not retain any list beyond
// Release.
type Frame struct {
	// Type says which of Ints/Floats is populated.
	Type Type
	// Ints holds the lists of an Int64 frame (nil otherwise). Lists are
	// sub-slices of one shared arena.
	Ints [][]int64
	// Floats holds the lists of a Float64 frame (nil otherwise).
	Floats [][]float64

	arenaI []int64
	arenaF []float64
}

// Lists reports the number of lists in the frame.
func (f *Frame) Lists() int {
	if f.Type == Float64 {
		return len(f.Floats)
	}
	return len(f.Ints)
}

// Elements reports the total element count across all lists.
func (f *Frame) Elements() int {
	if f.Type == Float64 {
		return len(f.arenaF)
	}
	return len(f.arenaI)
}

// Release returns the frame's arena to the pool and clears the list
// headers. Safe on nil and safe to call twice; every Ints/Floats slice
// is invalid afterward.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if f.arenaI != nil {
		PutInt64(f.arenaI)
		f.arenaI, f.Ints = nil, nil
	}
	if f.arenaF != nil {
		PutFloat64(f.arenaF)
		f.arenaF, f.Floats = nil, nil
	}
}

// chunkBytes is the portable path's streaming unit in both directions:
// big enough to amortize Read/Write calls, small enough to stay
// pool-friendly. A multiple of 8 so chunks never split an element.
const chunkBytes = 64 << 10

var chunkPool = sync.Pool{New: func() any { b := make([]byte, chunkBytes); return &b }}

// maxPooledCap caps what the arena pools retain: 1<<22 elements
// (32 MiB). Larger arenas serve their one request and go to the GC, so
// a single huge frame doesn't pin its high-water mark forever.
const maxPooledCap = 1 << 22

var (
	int64Pool   = sync.Pool{New: func() any { return new([]int64) }}
	float64Pool = sync.Pool{New: func() any { return new([]float64) }}
)

// roundCap rounds an arena request up to a power of two so pooled
// arenas converge on a few size classes instead of one per body size.
func roundCap(n int) int {
	if n <= 0 {
		return 0
	}
	return 1 << bits.Len(uint(n-1))
}

// GetInt64 returns a pooled []int64 of length n (contents undefined).
// Pair with PutInt64.
func GetInt64(n int) []int64 {
	p := int64Pool.Get().(*[]int64)
	if cap(*p) < n {
		*p = make([]int64, roundCap(n))
	}
	return (*p)[:n]
}

// PutInt64 returns a slice obtained from GetInt64 to the pool.
func PutInt64(s []int64) {
	if cap(s) == 0 || cap(s) > maxPooledCap {
		return
	}
	s = s[:0]
	int64Pool.Put(&s)
}

// GetFloat64 returns a pooled []float64 of length n (contents
// undefined). Pair with PutFloat64.
func GetFloat64(n int) []float64 {
	p := float64Pool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, roundCap(n))
	}
	return (*p)[:n]
}

// PutFloat64 returns a slice obtained from GetFloat64 to the pool.
func PutFloat64(s []float64) {
	if cap(s) == 0 || cap(s) > maxPooledCap {
		return
	}
	s = s[:0]
	float64Pool.Put(&s)
}

func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return err
}

// Decode reads one complete frame from r into a pooled arena. The
// length table is checked against lim before any allocation. The body
// must end exactly at the payload's last byte; anything further is
// ErrTrailing. Call frame.Release when done with the lists.
func Decode(r io.Reader, lim Limits) (*Frame, error) {
	return decode(r, lim, lebytes.Native())
}

// decode is Decode with the payload path chosen by the caller: zeroCopy
// reads straight into the arena's bytes and is only correct on a
// little-endian host; false selects the portable per-element path,
// which tests force to keep it covered on every host.
func decode(r io.Reader, lim Limits, zeroCopy bool) (*Frame, error) {
	maxElems := lim.MaxElements
	if maxElems <= 0 {
		maxElems = DefaultMaxElements
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, truncated(err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, ErrMagic
	}
	if hdr[4] != Version {
		return nil, fmt.Errorf("%w: got %d, speak %d", ErrVersion, hdr[4], Version)
	}
	t := Type(hdr[5])
	if !t.valid() {
		return nil, fmt.Errorf("%w: %d", ErrType, hdr[5])
	}
	n := int(binary.LittleEndian.Uint16(hdr[6:8]))
	// The length table is at most 65535×8 B = 512 KiB — bounded by the
	// format, so reading it whole before validation is safe.
	lenBuf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return nil, truncated(err)
	}
	lengths := make([]int, n)
	var total uint64
	for i := range lengths {
		l := binary.LittleEndian.Uint64(lenBuf[8*i:])
		total += l
		// Check per-list and cumulative against the limit in uint64 so
		// neither a huge single length nor a wrapping sum sneaks by.
		if l > uint64(maxElems) || total > uint64(maxElems) {
			return nil, fmt.Errorf("%w: %d elements > limit %d", ErrTooLarge, total, maxElems)
		}
		lengths[i] = int(l)
	}
	f := &Frame{Type: t}
	var err error
	switch t {
	case Int64:
		f.arenaI = GetInt64(int(total))
		err = readPayload(r, f.arenaI, zeroCopy)
		if err == nil {
			f.Ints = split(f.arenaI, lengths)
		}
	case Float64:
		f.arenaF = GetFloat64(int(total))
		err = readPayload(r, f.arenaF, zeroCopy)
		if err == nil {
			f.Floats = split(f.arenaF, lengths)
		}
	}
	if err == nil {
		err = expectEOF(r)
	}
	if err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// readPayload fills dst with the next 8*len(dst) payload bytes of r:
// one io.ReadFull into dst's own bytes when zeroCopy, else through a
// pooled chunk, converted one element at a time.
func readPayload[T int64 | float64](r io.Reader, dst []T, zeroCopy bool) error {
	if zeroCopy {
		if _, err := io.ReadFull(r, lebytes.Of(dst)); err != nil {
			return truncated(err)
		}
		return nil
	}
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	buf := *bp
	for len(dst) > 0 {
		n := min(len(dst), chunkBytes/8)
		if _, err := io.ReadFull(r, buf[:8*n]); err != nil {
			return truncated(err)
		}
		lebytes.Get(dst[:n], buf)
		dst = dst[n:]
	}
	return nil
}

// expectEOF asserts the reader is exhausted.
func expectEOF(r io.Reader) error {
	var one [1]byte
	switch _, err := io.ReadFull(r, one[:]); err {
	case io.EOF:
		return nil
	case nil:
		return ErrTrailing
	default:
		return err
	}
}

// split cuts an arena into per-list views without copying.
func split[T any](arena []T, lengths []int) [][]T {
	lists := make([][]T, len(lengths))
	off := 0
	for i, l := range lengths {
		lists[i] = arena[off : off+l : off+l]
		off += l
	}
	return lists
}

// Size reports the encoded byte size of a frame carrying lists of the
// given element counts — header, length table and payload. Use it for
// Content-Length before Encode.
func Size(listLens ...int) int64 {
	total := int64(0)
	for _, l := range listLens {
		total += int64(l)
	}
	return headerSize + 8*int64(len(listLens)) + 8*total
}

// EncodeInt64 writes one Int64 frame carrying the given lists to w:
// the header and length table in one Write, then, on a little-endian
// host, each non-empty list's own bytes in one Write (no whole-frame
// buffer).
func EncodeInt64(w io.Writer, lists ...[]int64) error {
	return encode(w, Int64, lists, lebytes.Native())
}

// EncodeFloat64 writes one Float64 frame carrying the given lists to w.
func EncodeFloat64(w io.Writer, lists ...[]float64) error {
	return encode(w, Float64, lists, lebytes.Native())
}

// encode writes one frame. zeroCopy writes each list's own bytes and is
// only correct on a little-endian host; false selects the portable path
// through a pooled chunk, which tests force to keep it covered.
func encode[T int64 | float64](w io.Writer, t Type, lists [][]T, zeroCopy bool) error {
	if len(lists) > math.MaxUint16 {
		return fmt.Errorf("%w: %d > %d", ErrTooManyLists, len(lists), math.MaxUint16)
	}
	hdr := make([]byte, headerSize+8*len(lists))
	copy(hdr, magic[:])
	hdr[4] = Version
	hdr[5] = byte(t)
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(len(lists)))
	for i, list := range lists {
		binary.LittleEndian.PutUint64(hdr[headerSize+8*i:], uint64(len(list)))
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if zeroCopy {
		for _, list := range lists {
			if len(list) > 0 {
				if _, err := w.Write(lebytes.Of(list)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	buf := *bp
	for _, list := range lists {
		for len(list) > 0 {
			n := min(len(list), chunkBytes/8)
			lebytes.Put(buf, list[:n])
			if _, err := w.Write(buf[:8*n]); err != nil {
				return err
			}
			list = list[n:]
		}
	}
	return nil
}

// AppendInt64 encodes an Int64 frame into a byte slice (appended to
// dst) — the convenience path for clients and tests that want a body
// []byte rather than a stream.
func AppendInt64(dst []byte, lists ...[]int64) []byte {
	var sb sliceBuf
	sb.b = dst
	_ = EncodeInt64(&sb, lists...)
	return sb.b
}

// AppendFloat64 encodes a Float64 frame into a byte slice appended to
// dst.
func AppendFloat64(dst []byte, lists ...[]float64) []byte {
	var sb sliceBuf
	sb.b = dst
	_ = EncodeFloat64(&sb, lists...)
	return sb.b
}

type sliceBuf struct{ b []byte }

func (s *sliceBuf) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

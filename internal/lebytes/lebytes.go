// Package lebytes converts int64 and float64 slices to and from their
// little-endian byte encoding — the element layout of the binary wire
// frame (internal/wire) and of extsort's spill files.
//
// On a little-endian host that encoding is the slice's own memory, so
// Of returns it as a []byte view through unsafe.Slice and callers move
// whole payloads with one Read or Write, no conversion pass and no
// scratch buffer. Native reports whether the host is such a host; on
// every other host callers take the portable path, Put and Get, which
// convert one element at a time through encoding/binary. Both paths
// produce and consume the same bytes.
package lebytes

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// native is decided once: the host stores a uint16 1 as bytes {1, 0}
// exactly when it is little-endian.
var native = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Native reports whether the host is little-endian, i.e. whether Of
// returns the little-endian encoding of its argument.
func Native() bool { return native }

// Of returns the memory of s as a []byte of length 8*len(s), sharing
// s's backing array: writes through either alias the other. It is the
// little-endian encoding of s only when Native reports true; callers
// must take the Put/Get path otherwise. Of(nil) and Of of an empty
// slice return nil.
func Of[T int64 | float64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
}

// Put writes the little-endian encoding of s into dst[:8*len(s)], one
// element at a time (the portable path). dst must hold 8*len(s) bytes.
func Put[T int64 | float64](dst []byte, s []T) {
	_ = dst[:8*len(s)]
	switch s := any(s).(type) {
	case []int64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
		}
	case []float64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
	}
}

// Get decodes src[:8*len(dst)] little-endian into dst, one element at
// a time (the portable path). src must hold 8*len(dst) bytes.
func Get[T int64 | float64](dst []T, src []byte) {
	_ = src[:8*len(dst)]
	switch d := any(dst).(type) {
	case []int64:
		for i := range d {
			d[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
}

package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzDecode feeds arbitrary bodies to the frame decoder under a tight
// element limit and asserts the safety contract: never panic, never
// allocate past the limit, classify every malformed body as one of the
// exported error classes, and — when a body does decode — survive a
// re-encode/re-decode round trip bit-exactly. Every body is decoded and
// re-encoded on each payload path (zero-copy and portable), and the
// paths must agree on the outcome and the bits.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendInt64(nil))
	f.Add(AppendInt64(nil, []int64{1, 2, 3}, []int64{4}))
	f.Add(AppendFloat64(nil, []float64{1.5, math.Inf(-1)}, nil))
	f.Add(AppendFloat64(nil, []float64{math.NaN(), math.Copysign(0, -1), 0}, []float64{math.Float64frombits(0x7ff0_0000_0000_0001)}))
	f.Add([]byte("MPW1 not a frame"))
	f.Add(mutateLen(AppendInt64(nil, []int64{1}), 0, math.MaxUint64))
	f.Add(append(AppendInt64(nil, []int64{7}), 0xFF))
	f.Fuzz(func(t *testing.T, body []byte) {
		paths := codecPaths()
		got := make([][][]uint64, len(paths))
		for i, zeroCopy := range paths {
			got[i] = fuzzDecodeOn(t, body, zeroCopy)
		}
		for i := 1; i < len(paths); i++ {
			if (got[i] == nil) != (got[0] == nil) || got[i] != nil && !sameBits(got[i], got[0]) {
				t.Fatalf("payload paths disagree: zeroCopy=%v decoded %v, zeroCopy=%v decoded %v",
					paths[0], got[0] != nil, paths[i], got[i] != nil)
			}
		}
	})
}

// fuzzDecodeOn decodes body on one payload path and checks the safety
// contract. It returns the decoded lists as bit patterns, or nil when
// the body was (correctly) rejected.
func fuzzDecodeOn(t *testing.T, body []byte, zeroCopy bool) [][]uint64 {
	const limit = 1 << 16
	fr, err := decode(bytes.NewReader(body), Limits{MaxElements: limit}, zeroCopy)
	if err != nil {
		if fr != nil {
			t.Fatal("non-nil frame alongside error")
		}
		for _, known := range []error{ErrMagic, ErrVersion, ErrType, ErrTooLarge, ErrTruncated, ErrTrailing} {
			if errors.Is(err, known) {
				return nil
			}
		}
		t.Fatalf("unclassified decode error: %v", err)
	}
	defer fr.Release()
	if fr.Elements() > limit {
		t.Fatalf("decoded %d elements past limit %d", fr.Elements(), limit)
	}
	// A valid frame must re-encode to the exact input bytes (the format
	// has one canonical encoding) on every path.
	for _, encZeroCopy := range codecPaths() {
		var re bytes.Buffer
		switch fr.Type {
		case Int64:
			err = encode(&re, Int64, fr.Ints, encZeroCopy)
		case Float64:
			err = encode(&re, Float64, fr.Floats, encZeroCopy)
		default:
			t.Fatalf("decoded impossible type %v", fr.Type)
		}
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re.Bytes(), body) {
			t.Fatalf("re-encode (zeroCopy=%v) differs from input: %d vs %d bytes", encZeroCopy, re.Len(), len(body))
		}
	}
	return frameBits(fr)
}

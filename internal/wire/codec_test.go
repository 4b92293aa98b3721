package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mergepath/internal/lebytes"
)

// codecPaths lists the payload paths decode/encode can take on this
// host: zero-copy on little-endian hosts, and always the portable
// per-element conversion.
func codecPaths() []bool {
	if lebytes.Native() {
		return []bool{true, false}
	}
	return []bool{false}
}

// refFrame builds a frame by hand, one element at a time, independent
// of encode: the byte-level spec of docs/WIRE.md.
func refFrame(t Type, lists [][]uint64) []byte {
	b := append([]byte{}, magic[:]...)
	b = append(b, Version, byte(t))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(lists)))
	for _, l := range lists {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(l)))
	}
	for _, l := range lists {
		for _, v := range l {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	return b
}

// codecShapes returns list shapes covering the edges: no lists, empty
// lists, one list crossing several 64 KiB chunks, and more lists than
// one chunk's worth of length table.
func codecShapes(rng *rand.Rand) [][]int {
	many := make([]int, 9000)
	for i := range many {
		many[i] = rng.Intn(4)
	}
	return [][]int{
		{},
		{0},
		{0, 0, 0},
		{1},
		{5, 0, 3},
		{chunkBytes/8*2 + 3, 0, 17},
		many,
	}
}

// randBits fills lists of the given lengths with random 64-bit
// patterns, seeding each list's head with the values a conversion could
// disturb: extremes, NaN payloads, ±0 and ±Inf.
func randBits(rng *rand.Rand, lens []int) [][]uint64 {
	special := []uint64{
		0, 1 << 63, math.MaxUint64, math.MaxInt64,
		math.Float64bits(math.NaN()), 0x7ff0_0000_0000_0001, 0xfff8_dead_beef_0001,
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
	}
	lists := make([][]uint64, len(lens))
	for i, n := range lens {
		lists[i] = make([]uint64, n)
		for j := range lists[i] {
			if j < len(special) {
				lists[i][j] = special[(i+j)%len(special)]
			} else {
				lists[i][j] = rng.Uint64()
			}
		}
	}
	return lists
}

// TestCodecPathsByteIdentical encodes and decodes the same lists
// through each payload path: every path must produce the hand-built
// reference frame byte for byte and decode it back bit-exactly.
func TestCodecPathsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for si, shape := range codecShapes(rng) {
		bitsLists := randBits(rng, shape)
		ints := make([][]int64, len(bitsLists))
		floats := make([][]float64, len(bitsLists))
		for i, l := range bitsLists {
			ints[i] = make([]int64, len(l))
			floats[i] = make([]float64, len(l))
			for j, v := range l {
				ints[i][j] = int64(v)
				floats[i][j] = math.Float64frombits(v)
			}
		}
		for _, zeroCopy := range codecPaths() {
			name := fmt.Sprintf("shape %d zeroCopy=%v", si, zeroCopy)
			var bi, bf bytes.Buffer
			if err := encode(&bi, Int64, ints, zeroCopy); err != nil {
				t.Fatalf("%s: encode int64: %v", name, err)
			}
			if err := encode(&bf, Float64, floats, zeroCopy); err != nil {
				t.Fatalf("%s: encode float64: %v", name, err)
			}
			if !bytes.Equal(bi.Bytes(), refFrame(Int64, bitsLists)) {
				t.Fatalf("%s: int64 frame differs from the reference bytes", name)
			}
			if !bytes.Equal(bf.Bytes(), refFrame(Float64, bitsLists)) {
				t.Fatalf("%s: float64 frame differs from the reference bytes", name)
			}
			fi, err := decode(&bi, Limits{}, zeroCopy)
			if err != nil {
				t.Fatalf("%s: decode int64: %v", name, err)
			}
			ff, err := decode(&bf, Limits{}, zeroCopy)
			if err != nil {
				t.Fatalf("%s: decode float64: %v", name, err)
			}
			if got := frameBits(fi); !sameBits(got, bitsLists) {
				t.Fatalf("%s: int64 lists differ after decode", name)
			}
			if got := frameBits(ff); !sameBits(got, bitsLists) {
				t.Fatalf("%s: float64 lists differ after decode", name)
			}
			fi.Release()
			ff.Release()
		}
	}
}

// TestCodecPathsSameErrors checks that a cut or padded body fails the
// same way on every path.
func TestCodecPathsSameErrors(t *testing.T) {
	valid := refFrame(Float64, randBits(rand.New(rand.NewSource(8)), []int{chunkBytes/8 + 9, 2}))
	bodies := map[string][]byte{
		"header only":       valid[:headerSize+16],
		"mid payload":       valid[:len(valid)/2],
		"one byte short":    valid[:len(valid)-1],
		"one byte trailing": append(append([]byte{}, valid...), 0),
	}
	for name, body := range bodies {
		var errs []error
		for _, zeroCopy := range codecPaths() {
			f, err := decode(bytes.NewReader(body), Limits{}, zeroCopy)
			if err == nil || f != nil {
				t.Fatalf("%s zeroCopy=%v: decoded a malformed body", name, zeroCopy)
			}
			errs = append(errs, err)
		}
		for _, err := range errs[1:] {
			if errors.Is(err, ErrTruncated) != errors.Is(errs[0], ErrTruncated) ||
				errors.Is(err, ErrTrailing) != errors.Is(errs[0], ErrTrailing) {
				t.Fatalf("%s: paths disagree: %v vs %v", name, errs[0], err)
			}
		}
	}
}

// frameBits returns a decoded frame's lists as raw 64-bit patterns.
func frameBits(f *Frame) [][]uint64 {
	out := make([][]uint64, f.Lists())
	for i := range out {
		if f.Type == Float64 {
			for _, v := range f.Floats[i] {
				out[i] = append(out[i], math.Float64bits(v))
			}
		} else {
			for _, v := range f.Ints[i] {
				out[i] = append(out[i], uint64(v))
			}
		}
	}
	return out
}

func sameBits(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// BenchmarkCodec reports decode and encode ns/elem for one 512K-element
// int64 list (the rpc-large-binary request size) on each payload path.
// Encode writes into a reused in-memory buffer, so the figure includes
// the one copy every real writer makes.
func BenchmarkCodec(b *testing.B) {
	const n = 512 << 10
	list := make([]int64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range list {
		list[i] = int64(rng.Uint64())
	}
	body := AppendInt64(nil, list)
	pathName := map[bool]string{true: "zero-copy", false: "portable"}
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
	}
	for _, zeroCopy := range codecPaths() {
		b.Run("decode/"+pathName[zeroCopy], func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			r := bytes.NewReader(body)
			for i := 0; i < b.N; i++ {
				r.Reset(body)
				f, err := decode(r, Limits{}, zeroCopy)
				if err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
			perElem(b)
		})
		b.Run("encode/"+pathName[zeroCopy], func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			var out bytes.Buffer
			out.Grow(len(body))
			for i := 0; i < b.N; i++ {
				out.Reset()
				if err := encode(&out, Int64, [][]int64{list}, zeroCopy); err != nil {
					b.Fatal(err)
				}
			}
			perElem(b)
		})
	}
}

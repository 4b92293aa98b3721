package lebytes

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sampleFloats mixes random bit patterns with the values whose bits a
// conversion could disturb: NaN payloads, ±0, ±Inf and subnormals.
func sampleFloats(rng *rand.Rand, n int) []float64 {
	special := []float64{
		math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff8_dead_beef_0001),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64,
	}
	s := make([]float64, n)
	for i := range s {
		if i < len(special) {
			s[i] = special[i]
		} else {
			s[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ints := make([]int64, 1000)
	for i := range ints {
		ints[i] = int64(rng.Uint64())
	}
	ints[0], ints[1] = math.MinInt64, math.MaxInt64
	buf := make([]byte, 8*len(ints))
	Put(buf, ints)
	for i, v := range ints {
		if got := int64(binary.LittleEndian.Uint64(buf[8*i:])); got != v {
			t.Fatalf("Put int64[%d]: %d, want %d", i, got, v)
		}
	}
	backI := make([]int64, len(ints))
	Get(backI, buf)
	for i := range ints {
		if backI[i] != ints[i] {
			t.Fatalf("Get int64[%d]: %d, want %d", i, backI[i], ints[i])
		}
	}

	floats := sampleFloats(rng, 1000)
	Put(buf, floats)
	backF := make([]float64, len(floats))
	Get(backF, buf)
	for i := range floats {
		if math.Float64bits(backF[i]) != math.Float64bits(floats[i]) {
			t.Fatalf("float64[%d]: bits %#x, want %#x", i, math.Float64bits(backF[i]), math.Float64bits(floats[i]))
		}
	}
}

// TestOfIsEncodingOnNativeHosts pins the zero-copy view to the portable
// encoding byte for byte, and its aliasing in both directions.
func TestOfIsEncodingOnNativeHosts(t *testing.T) {
	if Of([]int64(nil)) != nil || Of([]float64{}) != nil {
		t.Fatal("Of of an empty slice is not nil")
	}
	if !Native() {
		t.Skip("big-endian host: Of is not the little-endian encoding")
	}
	rng := rand.New(rand.NewSource(2))
	ints := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, int64(rng.Uint64())}
	want := make([]byte, 8*len(ints))
	Put(want, ints)
	if got := Of(ints); !bytes.Equal(got, want) {
		t.Fatalf("Of(int64) = %x, want %x", got, want)
	}
	floats := sampleFloats(rng, 64)
	want = make([]byte, 8*len(floats))
	Put(want, floats)
	if got := Of(floats); !bytes.Equal(got, want) {
		t.Fatalf("Of(float64) = %x, want %x", got, want)
	}
	// Writing through the view writes the elements.
	v := Of(ints)
	copy(v, want[:8])
	if math.Float64bits(floats[0]) != uint64(ints[0]) {
		t.Fatalf("write through view: ints[0] = %#x, want bits %#x", ints[0], math.Float64bits(floats[0]))
	}
	if len(Of(ints[:3])) != 24 {
		t.Fatal("view length is not 8 bytes per element")
	}
}

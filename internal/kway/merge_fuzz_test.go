package kway

import (
	"cmp"
	"context"
	"math"
	"slices"
	"testing"
)

// fuzzRuns decodes fuzz bytes into k sorted runs (k from the first
// byte, 1..33) over an eight-value domain, so ties and long runs of one
// list are the common case. val maps a byte's low three bits to a
// value.
func fuzzRuns[T cmp.Ordered](raw []byte, val func(b byte) T) [][]T {
	k := int(raw[0])%33 + 1
	raw = raw[1:]
	lists := make([][]T, k)
	for i := range lists {
		chunk := raw[:len(raw)/(k-i)]
		raw = raw[len(chunk):]
		l := make([]T, len(chunk))
		for j, b := range chunk {
			l[j] = val(b & 7)
		}
		slices.Sort(l)
		lists[i] = l
	}
	return lists
}

// signedZeros is the float domain of FuzzMergeInto: -0 and +0 compare
// equal, so their order in the output shows the cross-list tie rule.
var signedZeros = [8]float64{-1, math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, 1, 1, 2}

// FuzzMergeInto checks merged bytes, not just cuts: every strategy must
// match HeapMerge exactly for int64 runs and for float64 runs mixing -0
// and +0, at a worker count taken from the seed, both in one window per
// worker and cut into sub-windows of 1 to 16 elements under a cancelable
// ctx. NaN stays out: its order is unspecified. `make fuzz-kway` runs
// it.
func FuzzMergeInto(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6}, uint8(1))
	f.Add([]byte{18, 0, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 7, 7, 7, 7}, uint8(2))
	f.Add([]byte{32, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(3))
	f.Add([]byte{0}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, pSeed uint8) {
		if len(raw) == 0 {
			return
		}
		p := int(pSeed)%4 + 1
		span := int(pSeed>>2)%16 + 1
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ints := fuzzRuns(raw, func(b byte) int64 { return int64(b) })
		wantInts := HeapMerge(ints)
		floats := fuzzRuns(raw, func(b byte) float64 { return signedZeros[b] })
		wantFloats := HeapMerge(floats)
		for _, strat := range strategies {
			if got, _ := MergeIntoStats(make([]int64, len(wantInts)), ints, p, strat); !slices.Equal(got, wantInts) {
				t.Fatalf("int64 %v p=%d: got %v want %v", strat, p, got, wantInts)
			}
			if got, _ := MergeIntoStats(make([]float64, len(wantFloats)), floats, p, strat); !sameBits(got, wantFloats) {
				t.Fatalf("float64 %v p=%d: got %v want %v", strat, p, got, wantFloats)
			}
			if got, _, _ := mergeInto(ctx, make([]int64, len(wantInts)), ints, p, strat, nil, span); !slices.Equal(got, wantInts) {
				t.Fatalf("int64 %v p=%d span=%d: got %v want %v", strat, p, span, got, wantInts)
			}
			if got, _, _ := mergeInto(ctx, make([]float64, len(wantFloats)), floats, p, strat, nil, span); !sameBits(got, wantFloats) {
				t.Fatalf("float64 %v p=%d span=%d: got %v want %v", strat, p, span, got, wantFloats)
			}
		}
	})
}

package psort

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// int64Shapes are the inputs the int64 radix leaf must sort exactly as
// slices.Sort does: full-range keys (both extremes, -1 and 0 included),
// inputs on which every pass or all but one pass is skipped, the
// benchmark's stride keys, and the two presorted orders.
var int64Shapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []int64
}{
	{"uniform", func(rng *rand.Rand, n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(rng.Uint64())
		}
		for i, v := range []int64{math.MinInt64, math.MaxInt64, -1, 0} {
			if i < n {
				s[rng.Intn(n)] = v
			}
		}
		return s
	}},
	{"all-equal", func(rng *rand.Rand, n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = -7
		}
		return s
	}},
	{"two-values", func(rng *rand.Rand, n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = []int64{math.MinInt64 + 1, 1 << 40}[rng.Intn(2)]
		}
		return s
	}},
	{"stride", func(rng *rand.Rand, n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = (rng.Int63n(int64(2*n+1)) - int64(n)) * (1<<40 + 1)
		}
		return s
	}},
	{"presorted", func(rng *rand.Rand, n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i-n/2) * 1_000_003
		}
		return s
	}},
	{"reversed", func(rng *rand.Rand, n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(n/2-i) * 1_000_003
		}
		return s
	}},
}

// TestSortInt64MatchesSlicesSort runs every int64 entry point across
// sizes on both sides of radixMinRun and past the 64K run cap, so runs
// take the radix leaf, the merge-sort leaf, or a mix of the two.
func TestSortInt64MatchesSlicesSort(t *testing.T) {
	engines := []struct {
		name string
		run  func(s []int64, p int) error
	}{
		{"Sort", func(s []int64, p int) error { Sort(s, p); return nil }},
		{"SortCtx", func(s []int64, p int) error { return SortCtx(context.Background(), s, p) }},
		{"SortCtxStats", func(s []int64, p int) error {
			_, err := SortCtxStats(context.Background(), s, p)
			return err
		}},
	}
	rng := rand.New(rand.NewSource(80))
	for _, n := range []int{0, 1, 2, radixMinRun - 1, radixMinRun, radixMinRun + 1, 65536, 3*65536 + 1} {
		for _, shape := range int64Shapes {
			data := shape.gen(rng, n)
			want := slices.Clone(data)
			slices.Sort(want)
			for _, p := range []int{1, 2, 3, 5} {
				for _, e := range engines {
					got := slices.Clone(data)
					if err := e.run(got, p); err != nil {
						t.Fatalf("%s %s n=%d p=%d: %v", e.name, shape.name, n, p, err)
					}
					if i := firstMismatch(got, want); i >= 0 {
						t.Fatalf("%s %s n=%d p=%d: diverges from slices.Sort at %d", e.name, shape.name, n, p, i)
					}
				}
			}
		}
	}
}

// TestSortFloat64SignedZerosKeepOrder pins float64 to the stable
// comparison leaf: -0 and +0 compare equal, so a run of radixMinRun or
// more elements must keep them in input order. Until float64 has one
// total order, no float run may take an order-by-bits leaf, which would
// put every -0 before every +0.
func TestSortFloat64SignedZerosKeepOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const n = 4 * radixMinRun
	s := make([]float64, n)
	var zeroSigns []bool
	for i := range s {
		switch rng.Intn(3) {
		case 0:
			s[i] = -1.5
		case 1:
			s[i] = 2.5
		default:
			neg := rng.Intn(2) == 0
			if neg {
				s[i] = math.Copysign(0, -1)
			}
			zeroSigns = append(zeroSigns, neg)
		}
	}
	for _, p := range []int{1, 2} {
		got := slices.Clone(s)
		Sort(got, p)
		if !slices.IsSorted(got) {
			t.Fatalf("p=%d: not sorted", p)
		}
		var signs []bool
		for _, v := range got {
			if v == 0 {
				signs = append(signs, math.Signbit(v))
			}
		}
		if !slices.Equal(signs, zeroSigns) {
			t.Fatalf("p=%d: signed zeros reordered", p)
		}
	}
}

// FuzzSortInt64 checks the int64 leaves against slices.Sort. The fuzz
// bytes become 8-byte little-endian words, tiled with a rotation per
// repeat until every one of the p runs reaches radixMinRun, so the
// fuzzer steers which radix passes run and which are skipped.
func FuzzSortInt64(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(2))
	f.Add([]byte("merge path radix leaf"), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, pSeed uint8) {
		p := 1 + int(pSeed)%5
		var words []uint64
		for len(raw) > 0 {
			var w [8]byte
			raw = raw[copy(w[:], raw):]
			words = append(words, binary.LittleEndian.Uint64(w[:]))
		}
		if len(words) == 0 {
			words = []uint64{0}
		}
		s := make([]int64, p*radixMinRun+len(words))
		for i := range s {
			s[i] = int64(bits.RotateLeft64(words[i%len(words)], i/len(words)))
		}
		want := slices.Clone(s)
		slices.Sort(want)
		Sort(s, p)
		if i := firstMismatch(s, want); i >= 0 {
			t.Fatalf("n=%d p=%d: diverges from slices.Sort at %d", len(s), p, i)
		}
	})
}

func firstMismatch(got, want []int64) int {
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return len(want)
	}
	return -1
}

// TestRadixSortInt64Skips checks the pass skipping directly, for each
// digit: keys that differ only in that digit, and keys all equal but one
// outlier at either end (its pass must run although n-1 keys share the
// digit). An odd number of scatter passes must still land the result in s.
func TestRadixSortInt64Skips(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	const n = radixMinRun + 3
	for digit := range radixPasses {
		shift := digit * radixBits
		for _, base := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
			spread := make([]int64, n)
			for i := range spread {
				spread[i] = base ^ int64(uint64(rng.Intn(radixBuckets))<<shift)
			}
			inputs := map[string][]int64{"spread": spread}
			for _, at := range []int{0, n - 1} {
				s := make([]int64, n)
				for i := range s {
					s[i] = base
				}
				s[at] ^= 1 << shift
				inputs[fmt.Sprintf("outlier@%d", at)] = s
			}
			for name, s := range inputs {
				want := slices.Clone(s)
				slices.Sort(want)
				radixSortInt64(s, make([]int64, n))
				if i := firstMismatch(s, want); i >= 0 {
					t.Fatalf("digit=%d base=%#x %s: diverges from slices.Sort at %d", digit, base, name, i)
				}
			}
		}
	}
}

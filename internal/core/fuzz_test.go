package core

import (
	"cmp"
	"math"
	"testing"

	"mergepath/internal/verify"
)

// decodeSortedPair turns fuzz bytes into two sorted int32 arrays: the
// first byte splits the data, the rest become elements (sorted in place).
func decodeSortedPair(data []byte) (a, b []int32) {
	if len(data) == 0 {
		return nil, nil
	}
	split := int(data[0]) % len(data)
	mk := func(bs []byte) []int32 {
		s := make([]int32, len(bs))
		for i, v := range bs {
			s[i] = int32(v)
		}
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s
	}
	return mk(data[1 : 1+split]), mk(data[1+split:])
}

func FuzzParallelMerge(f *testing.F) {
	f.Add([]byte{3, 1, 5, 2, 9, 4, 4, 0}, uint8(4))
	f.Add([]byte{0}, uint8(1))
	f.Add([]byte{7, 255, 254, 253, 1, 2, 3, 0, 0}, uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, pSeed uint8) {
		a, b := decodeSortedPair(data)
		p := 1 + int(pSeed)%16
		out := make([]int32, len(a)+len(b))
		ParallelMerge(a, b, out, p)
		if !verify.Equal(out, verify.ReferenceMerge(a, b)) {
			t.Fatalf("p=%d a=%v b=%v: got %v", p, a, b, out)
		}
	})
}

func FuzzSearchDiagonalInvariant(f *testing.F) {
	f.Add([]byte{2, 10, 20, 30}, uint16(2))
	f.Add([]byte{0, 1}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, kSeed uint16) {
		a, b := decodeSortedPair(data)
		total := len(a) + len(b)
		k := 0
		if total > 0 {
			k = int(kSeed) % (total + 1)
		}
		pt := SearchDiagonal(a, b, k)
		if pt.A+pt.B != k {
			t.Fatalf("off diagonal: %+v for k=%d", pt, k)
		}
		if pt.A > 0 && pt.B < len(b) && a[pt.A-1] > b[pt.B] {
			t.Fatalf("invariant 1: a=%v b=%v k=%d pt=%+v", a, b, k, pt)
		}
		if pt.B > 0 && pt.A < len(a) && b[pt.B-1] >= a[pt.A] {
			t.Fatalf("invariant 2: a=%v b=%v k=%d pt=%+v", a, b, k, pt)
		}
		// Cross-check against the explicit merge path.
		if want := Path(a, b)[k]; want != pt {
			t.Fatalf("search %+v, path %+v", pt, want)
		}
	})
}

func FuzzHierarchicalMerge(f *testing.F) {
	f.Add([]byte{4, 8, 6, 7, 5, 3, 0, 9}, uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, blocks, team uint8) {
		a, b := decodeSortedPair(data)
		cfg := HierarchicalConfig{Blocks: 1 + int(blocks)%8, TeamSize: 1 + int(team)%4}
		out := make([]int32, len(a)+len(b))
		HierarchicalMerge(a, b, out, cfg)
		if !verify.Equal(out, verify.ReferenceMerge(a, b)) {
			t.Fatalf("cfg=%+v a=%v b=%v: got %v", cfg, a, b, out)
		}
	})
}

// decodeRuns deals fuzz bytes into two sorted key lists, one run per
// byte: bits 0-2 pick the run's length (1, 2, 3, runProbe-1, runProbe,
// runProbe+1, 2·runProbe+3 or 5·runProbe, so the kernel's probe sees
// runs just short of, at and past its threshold), bit 3 its list, bits
// 4-5 how far its first key steps up from the previous run's last (0
// puts a tie across the run edge), and bit 6 whether its keys all tie
// or climb by one. Keys start at -12, so they cross zero.
func decodeRuns(data []byte) (a, b []int) {
	lens := [8]int{1, 2, 3, runProbe - 1, runProbe, runProbe + 1, 2*runProbe + 3, 5 * runProbe}
	key := -12
	for _, c := range data {
		key += int(c>>4) & 3
		for n := lens[c&7]; n > 0; n-- {
			if c&8 == 0 {
				a = append(a, key)
			} else {
				b = append(b, key)
			}
			if c&64 == 0 && n > 1 {
				key++
			}
		}
	}
	return a, b
}

// floatKeys maps keys to float64 in order: ±0 for 0 (the sign
// alternates, so ties differ in bits), the smallest subnormal and a
// larger one for ±1 and ±2, ±k up to ±39, then ±MaxFloat64 and ±Inf.
func floatKeys(keys []int) []float64 {
	out := make([]float64, len(keys))
	for i, k := range keys {
		m := float64(max(k, -k))
		switch {
		case k == 0 && i%2 == 1:
			out[i] = math.Copysign(0, -1)
			continue
		case m == 1:
			m = math.SmallestNonzeroFloat64
		case m == 2:
			m = 0x1p-1030
		case m == 40:
			m = math.MaxFloat64
		case m > 40:
			m = math.Inf(1)
		}
		out[i] = math.Copysign(m, float64(k))
	}
	return out
}

// checkMergeSteps runs MergeSteps from the co-rank point at a seeded
// rank for a seeded step count and compares its output with the
// reference merge's ranks under same, and the point it returns with
// SearchDiagonal's.
func checkMergeSteps[T cmp.Ordered](t *testing.T, a, b []T, startSeed, stepSeed uint16, same func(x, y T) bool) {
	t.Helper()
	total := len(a) + len(b)
	lo := int(startSeed) % (total + 1)
	steps := int(stepSeed) % (total - lo + 1)
	out := make([]T, steps)
	end := MergeSteps(a, b, SearchDiagonal(a, b, lo), steps, out)
	want := verify.ReferenceMerge(a, b)[lo : lo+steps]
	for i := range want {
		if !same(out[i], want[i]) {
			t.Fatalf("%T ranks [%d,%d) of a=%v b=%v: rank %d is %v, want %v", out, lo, lo+steps, a, b, lo+i, out[i], want[i])
		}
	}
	if pt := SearchDiagonal(a, b, lo+steps); end != pt {
		t.Fatalf("%T ranks [%d,%d) of a=%v b=%v: reached %+v, want %+v", out, lo, lo+steps, a, b, end, pt)
	}
}

// FuzzMergeSteps checks the served kernel, run probe and gallop
// included, from any co-rank start for any step count, on int64 keys
// and on float64 keys over ±0, ±Inf and subnormals (compared bit for
// bit, so a tie taken from b first shows).
func FuzzMergeSteps(f *testing.F) {
	f.Add([]byte{0x0c, 0x04, 0x3d, 0x46, 0x0f, 0x57, 0x03, 0x25}, uint16(0), uint16(0xffff))
	f.Add([]byte{0x4c, 0x04, 0x4b, 0x05, 0x47, 0x4e}, uint16(7), uint16(40))
	f.Add([]byte{0x06, 0x1e, 0x05, 0x1d, 0x04, 0x1c, 0x07}, uint16(33), uint16(500))
	f.Add([]byte{0x71, 0x39, 0x42, 0x0a, 0x00}, uint16(3), uint16(5))
	// A runProbe-element b run tied with a shorter a run: the b probe
	// must not fire on the tie.
	f.Add([]byte{0x4c, 0x43}, uint16(0), uint16(5))
	// A runProbe-element b run, three b keys tied with a's head, then
	// a: the gallop must stop before the ties.
	f.Add([]byte{0x0c, 0x5a, 0x43}, uint16(0), uint16(runProbe+1))
	f.Fuzz(func(t *testing.T, data []byte, startSeed, stepSeed uint16) {
		ka, kb := decodeRuns(data)
		a, b := make([]int64, len(ka)), make([]int64, len(kb))
		for i, k := range ka {
			a[i] = int64(k)
		}
		for i, k := range kb {
			b[i] = int64(k)
		}
		checkMergeSteps(t, a, b, startSeed, stepSeed, func(x, y int64) bool { return x == y })
		checkMergeSteps(t, floatKeys(ka), floatKeys(kb), startSeed, stepSeed, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
	})
}

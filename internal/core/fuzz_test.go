package core

import (
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

package router

import (
	"math/rand"
	"testing"

	"mergepath/internal/core"
	"mergepath/internal/verify"
)

// sortedInt64 draws n values from [0, bound) and insertion-sorts them.
// A small bound makes duplicate-heavy inputs (the tie-rule stressor).
func sortedInt64(rng *rand.Rand, n int, bound int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = rng.Int63n(bound)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

// mergeWindows runs every window's sub-merge locally — standing in for
// the backends — straight into its slice of one output, as the router
// places the partials.
func mergeWindows(a, b []int64, ws []Window) []int64 {
	out := make([]int64, len(a)+len(b))
	lo := 0
	for _, w := range ws {
		core.ParallelMerge(a[w.ALo:w.AHi], b[w.BLo:w.BHi], out[lo:lo+w.Len()], 2)
		lo += w.Len()
	}
	return out
}

// checkWindows asserts the structural invariants SplitMerge guarantees:
// the windows tile both inputs contiguously and their output sizes are
// balanced to within one element.
func checkWindows(t *testing.T, a, b []int64, ws []Window, parts int) {
	t.Helper()
	n := len(a) + len(b)
	if n == 0 {
		if len(ws) != 1 || ws[0] != (Window{}) {
			t.Fatalf("empty input: windows = %+v", ws)
		}
		return
	}
	want := parts
	if want > n {
		want = n
	}
	if len(ws) != want {
		t.Fatalf("got %d windows, want %d", len(ws), want)
	}
	prevA, prevB := 0, 0
	minLen, maxLen := n, 0
	for i, w := range ws {
		if w.ALo != prevA || w.BLo != prevB {
			t.Fatalf("window %d does not tile: %+v after (%d,%d)", i, w, prevA, prevB)
		}
		if w.AHi < w.ALo || w.BHi < w.BLo {
			t.Fatalf("window %d inverted: %+v", i, w)
		}
		if l := w.Len(); l > 0 {
			if l < minLen {
				minLen = l
			}
			if l > maxLen {
				maxLen = l
			}
		}
		prevA, prevB = w.AHi, w.BHi
	}
	if prevA != len(a) || prevB != len(b) {
		t.Fatalf("windows end at (%d,%d), inputs are (%d,%d)", prevA, prevB, len(a), len(b))
	}
	if maxLen-minLen > 1 {
		t.Fatalf("imbalanced windows: min %d, max %d", minLen, maxLen)
	}
}

// TestSplitGatherEqualsSingleNode is the scatter correctness property:
// for any sorted inputs, any part count, cutting with SplitMerge,
// merging each window independently into its slice of the output is
// byte-identical to one reference merge — duplicates,
// skew and degenerate sizes included. This is exactly the router's
// scatter path with the network removed.
func TestSplitGatherEqualsSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := [][2]int{
		{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 3},
		{17, 0}, {0, 64}, {100, 100}, {1000, 37}, {5000, 5000},
	}
	bounds := []int64{4, 1 << 20} // duplicate-heavy and mostly-distinct
	for _, sz := range sizes {
		for _, bound := range bounds {
			a := sortedInt64(rng, sz[0], bound)
			b := sortedInt64(rng, sz[1], bound)
			want := verify.ReferenceMerge(a, b)
			for _, parts := range []int{2, 4, 8} {
				ws := SplitMerge(a, b, parts)
				checkWindows(t, a, b, ws, parts)
				got := mergeWindows(a, b, ws)
				if !verify.Equal(got, want) {
					t.Fatalf("a=%d b=%d bound=%d parts=%d: scatter+gather != single merge",
						sz[0], sz[1], bound, parts)
				}
			}
		}
	}
}

// TestSplitGatherSkewed covers pathological skew: one input drained
// long before the other, interleaved blocks, and all-equal inputs where
// every element ties across the arrays.
func TestSplitGatherSkewed(t *testing.T) {
	cases := []struct {
		name string
		a, b []int64
	}{
		{"a-first", seq(0, 1000), seq(5000, 1000)},
		{"b-first", seq(5000, 1000), seq(0, 1000)},
		{"interleaved-blocks", blocks(0, 10, 100), blocks(5, 10, 100)},
		{"all-equal", repeat(42, 777), repeat(42, 333)},
		{"one-empty", seq(0, 999), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := verify.ReferenceMerge(tc.a, tc.b)
			for _, parts := range []int{2, 4, 8} {
				ws := SplitMerge(tc.a, tc.b, parts)
				checkWindows(t, tc.a, tc.b, ws, parts)
				got := mergeWindows(tc.a, tc.b, ws)
				if !verify.Equal(got, want) {
					t.Fatalf("parts=%d: scatter+gather != single merge", parts)
				}
			}
		})
	}
}

// TestSplitMergeRandomized fuzzes sizes and part counts beyond the
// fixed grid, including parts exceeding the element count.
func TestSplitMergeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a := sortedInt64(rng, rng.Intn(300), 1+rng.Int63n(50))
		b := sortedInt64(rng, rng.Intn(300), 1+rng.Int63n(50))
		parts := 1 + rng.Intn(20)
		ws := SplitMerge(a, b, parts)
		checkWindows(t, a, b, ws, parts)
		got := mergeWindows(a, b, ws)
		if !verify.Equal(got, verify.ReferenceMerge(a, b)) {
			t.Fatalf("trial %d (|a|=%d |b|=%d parts=%d): mismatch", trial, len(a), len(b), parts)
		}
	}
}

func seq(start int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = start + int64(i)
	}
	return s
}

func blocks(start, stride int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = start + stride*int64(i/10)
	}
	return s
}

func repeat(v int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

package psort

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stableOrder returns the indices of v in stable sorted order: by value,
// equal values (-0 and +0 among them) by input index. The (value,
// index) keys are unique, so any sort yields the one stable order;
// TestStableOrderIsSortStableFunc pins it to slices.SortStableFunc.
func stableOrder[T cmp.Ordered](v []T) []int32 {
	type tagged struct {
		v T
		i int32
	}
	tags := make([]tagged, len(v))
	for i, x := range v {
		tags[i] = tagged{x, int32(i)}
	}
	slices.SortFunc(tags, func(x, y tagged) int {
		if c := cmp.Compare(x.v, y.v); c != 0 {
			return c
		}
		return cmp.Compare(x.i, y.i)
	})
	idx := make([]int32, len(v))
	for i, tg := range tags {
		idx[i] = tg.i
	}
	return idx
}

// prefixRef writes the stable sort of v[:n] into ref: the elements of
// order with index below n, in order.
func prefixRef[T any](ref, v []T, order []int32, n int) []T {
	ref = ref[:0]
	for _, i := range order {
		if int(i) < n {
			ref = append(ref, v[i])
		}
	}
	return ref
}

// firstDiff returns the first index where got and want differ, or -1;
// float64 elements compare by bits, so -0 in place of +0 differs.
func firstDiff[T cmp.Ordered](got, want []T) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	if g, ok := any(got).([]float64); ok {
		w := any(want).([]float64)
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return i
			}
		}
		return -1
	}
	for i := range got {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// floatDomain mixes ±0, ±Inf, subnormals and normal values, so the
// signed zeros, which compare equal, show whether equal keys keep their
// input order.
var floatDomain = []float64{
	math.Inf(-1), -math.MaxFloat64, -1e300, -1.5, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
	0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 0x1p-1023, 1, 1.5, 1e300, math.MaxFloat64, math.Inf(1),
}

// TestStableOrderIsSortStableFunc: the reference the engine test
// compares against is exactly slices.SortStableFunc's output.
func TestStableOrderIsSortStableFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	v := make([]float64, 5000)
	for i := range v {
		v[i] = floatDomain[rng.Intn(len(floatDomain))]
	}
	want := slices.Clone(v)
	slices.SortStableFunc(want, cmp.Compare[float64])
	if at := firstDiff(prefixRef(nil, v, stableOrder(v), len(v)), want); at >= 0 {
		t.Fatalf("reference differs from slices.SortStableFunc at %d", at)
	}
}

// testRunCap is the run cap the differential tests sort with besides
// maxRunElems: run shapes depend on n only through n/runCap, so it
// reaches every shape at sizes the tests can afford, and at 4096 the
// int64 runs still take the radix leaf.
const testRunCap = 4096

// TestSortEngineDifferential sorts at the sizes where the run shape
// changes — 0, 1, 2, p·cap−1, p·cap, p·cap+1 and 2·p·cap+7, the last
// two past p runs — for p in {1, 2, 3, 4, 7}, over int64 (radix leaf),
// int32 and float64 with ±0, ±Inf and subnormals (comparison leaf),
// and requires the stable reference's exact bytes. cap is testRunCap;
// int64 at p = 2, the served shape, runs at maxRunElems too. Sizes
// alternate between the allocating path and SortInto's lent buffer
// under a cancelable ctx, whose merge pass cuts 64K sub-windows.
func TestSortEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const maxN = 4*maxRunElems + 7
	ints := make([]int64, maxN)
	for i := range ints {
		ints[i] = int64(rng.Uint64())
		if i%5 == 0 {
			ints[i] = int64(rng.Intn(16)) - 8 // ties, both signs
		}
	}
	int32s := make([]int32, 2*7*testRunCap+7)
	for i := range int32s {
		int32s[i] = int32(rng.Intn(1 << 12))
	}
	floats := make([]float64, len(int32s))
	for i := range floats {
		floats[i] = floatDomain[rng.Intn(len(floatDomain))]
		if i%3 == 0 {
			floats[i] = rng.NormFloat64() * 1e6
		}
	}
	for _, p := range []int{1, 2, 3, 4, 7} {
		engineDifferential(t, ints[:2*7*testRunCap+7], p, testRunCap)
		engineDifferential(t, int32s, p, testRunCap)
		engineDifferential(t, floats, p, testRunCap)
	}
	engineDifferential(t, ints, 2, maxRunElems)
}

// engineDifferential runs sortInto over the shape-changing prefixes of
// v at p workers and run cap runCap.
func engineDifferential[T cmp.Ordered](t *testing.T, v []T, p, runCap int) {
	t.Helper()
	order := stableOrder(v)
	ref := make([]T, 0, len(v))
	work := make([]T, len(v))
	dst := make([]T, len(v))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := p * runCap
	for i, n := range []int{0, 1, 2, c - 1, c, c + 1, 2*c + 7} {
		ref = prefixRef(ref, v, order, n)
		in := work[:n]
		copy(in, v)
		got := in
		var st SortStats
		var err error
		if i%2 == 0 {
			st, err = sortInPlace(context.Background(), in, p, runCap, seqSort[T], mergeRuns[T])
		} else {
			got = dst[:n]
			st, err = sortInto(ctx, got, in, p, runCap, seqSort[T], mergeRuns[T])
		}
		if err != nil {
			t.Fatal(err)
		}
		if pe := min(p, n); n >= 2 && (st.Runs%pe != 0 || st.Runs < pe) {
			t.Fatalf("%T p=%d n=%d: %d runs, want a positive multiple of min(p, n)", v, p, n, st.Runs)
		}
		if at := firstDiff(got, ref); at >= 0 {
			t.Fatalf("%T p=%d cap=%d n=%d: differs from the stable reference at %d", v, p, runCap, n, at)
		}
	}
}

// TestSortFuncStableDifferential: the SortFunc phases on (key, index)
// pairs with a key-only less must keep equal keys in input order,
// exactly as slices.SortStableFunc does, including past p runs, and the
// public SortFunc must agree at its own cap.
func TestSortFuncStableDifferential(t *testing.T) {
	type kv struct{ key, idx int32 }
	less := func(x, y kv) bool { return x.key < y.key }
	seq, merge := funcPhases(less)
	rng := rand.New(rand.NewSource(23))
	for _, p := range []int{1, 2, 3, 4, 7} {
		c := p * testRunCap
		for _, n := range []int{0, 1, 2, 1000, c - 1, c, c + 1, 2*c + 7} {
			s := make([]kv, n)
			for i := range s {
				s[i] = kv{int32(rng.Intn(50)), int32(i)}
			}
			want := slices.Clone(s)
			slices.SortStableFunc(want, func(x, y kv) int { return cmp.Compare(x.key, y.key) })
			got := slices.Clone(s)
			if _, err := sortInPlace(context.Background(), got, p, testRunCap, seq, merge); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("p=%d n=%d: SortFunc phases differ from slices.SortStableFunc", p, n)
			}
			if n == 2*c+7 {
				SortFunc(s, p, less)
				if !slices.Equal(s, want) {
					t.Fatalf("p=%d n=%d: SortFunc differs from slices.SortStableFunc", p, n)
				}
			}
		}
	}
}

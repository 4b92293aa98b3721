package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

// mergeBranching is the ordered kernel MergeSteps replaced: one
// data-dependent branch per element and no run copy. It stays here as
// the baseline of BenchmarkMergeKernels (EXPERIMENTS X2) and as a second
// oracle for the served kernel.
func mergeBranching[T cmp.Ordered](a, b []T, start Point, steps int, out []T) Point {
	i, j := start.A, start.B
	k := 0
	for k < steps && i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	n := copy(out[k:steps], a[i:])
	i, k = i+n, k+n
	j += copy(out[k:steps], b[j:])
	return Point{A: i, B: j}
}

// The four tests below checked the branch-free kernel while it was a
// spare variant beside the branching one; that kernel is now Merge and
// MergeSteps, so they check the served kernel under the same names.

func TestMergeBranchFreeMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(170))
	for trial := 0; trial < 120; trial++ {
		kind := workload.Kinds()[trial%len(workload.Kinds())]
		na, nb := rng.Intn(400), rng.Intn(400)
		a, b := workload.Pair(kind, na, nb, int64(trial))
		o1 := make([]int32, na+nb)
		o2 := make([]int32, na+nb)
		p1 := mergeBranching(a, b, Point{}, na+nb, o1)
		Merge(a, b, o2)
		p2 := MergeSteps(a, b, Point{}, na+nb, o2)
		if !verify.Equal(o1, o2) || p1 != p2 {
			t.Fatalf("kind=%v na=%d nb=%d: kernels disagree", kind, na, nb)
		}
	}
}

func TestMergeStepsBranchFreeResumable(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for trial := 0; trial < 60; trial++ {
		kind := workload.Kinds()[trial%len(workload.Kinds())]
		na, nb := rng.Intn(200), rng.Intn(200)
		a, b := workload.Pair(kind, na, nb, int64(trial))
		total := na + nb
		want := verify.ReferenceMerge(a, b)
		got := make([]int32, total)
		pt := Point{}
		done := 0
		for done < total {
			chunk := 1 + rng.Intn(total-done)
			next := MergeSteps(a, b, pt, chunk, got[done:done+chunk])
			if alt := mergeBranching(a, b, pt, chunk, make([]int32, chunk)); alt != next {
				t.Fatalf("kernels reach different points: %+v vs %+v", next, alt)
			}
			pt = next
			done += chunk
		}
		if !verify.Equal(got, want) {
			t.Fatalf("trial %d: chunked merge differs", trial)
		}
	}
}

func TestMergeBranchFreePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on bad output")
			}
		}()
		Merge([]int32{1}, []int32{2}, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on bad steps")
			}
		}()
		MergeSteps([]int32{1}, []int32{2}, Point{}, 3, make([]int32, 3))
	}()
}

func TestMergeBranchFreeQuick(t *testing.T) {
	f := func(rawA, rawB []int32) bool {
		a, b := sortedCopy(rawA), sortedCopy(rawB)
		out := make([]int32, len(a)+len(b))
		Merge(a, b, out)
		return verify.Equal(out, verify.ReferenceMerge(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// kernelShapes are BenchmarkMergeKernels' inputs, n outputs each:
// uniform is rpc-large-binary's merge shape (a random split, values
// drawn from 2n keys), halves is psort's phase 2 at p = 2 (two sorted
// halves of full-range keys), runs1000 alternates 1000-element runs
// and equal is one key throughout.
func kernelShapes(n int) []struct {
	name string
	a, b []int64
} {
	rng := rand.New(rand.NewSource(172))
	keys := func(m int, draw func() int64) []int64 {
		s := make([]int64, m)
		for i := range s {
			s[i] = draw()
		}
		slices.Sort(s)
		return s
	}
	span := func() int64 { return rng.Int63n(int64(2*n)) - int64(n) }
	full := func() int64 { return int64(rng.Uint64()) }
	na := n/2 + rng.Intn(n/4) - n/8
	var ra, rb []int64
	for v := 0; v < n; v++ {
		if v/1000%2 == 0 {
			ra = append(ra, int64(v))
		} else {
			rb = append(rb, int64(v))
		}
	}
	return []struct {
		name string
		a, b []int64
	}{
		{"uniform", keys(na, span), keys(n-na, span)},
		{"halves", keys(n/2, full), keys(n-n/2, full)},
		{"runs1000", ra, rb},
		{"equal", make([]int64, n/2), make([]int64, n-n/2)},
	}
}

// BenchmarkMergeKernels is EXPERIMENTS X2: the branching baseline
// against the served kernel, int64 and float64, 400K outputs per merge,
// in ns per output element.
func BenchmarkMergeKernels(b *testing.B) {
	const n = 400_000
	for _, sh := range kernelShapes(n) {
		fa, fb := make([]float64, len(sh.a)), make([]float64, len(sh.b))
		for i, v := range sh.a {
			fa[i] = float64(v)
		}
		for i, v := range sh.b {
			fb[i] = float64(v)
		}
		benchKernels(b, "int64/"+sh.name, sh.a, sh.b)
		benchKernels(b, "float64/"+sh.name, fa, fb)
	}
}

func benchKernels[T int64 | float64](b *testing.B, name string, x, y []T) {
	out := make([]T, len(x)+len(y))
	for _, k := range []struct {
		name string
		run  func(a, b []T, start Point, steps int, out []T) Point
	}{{"branching", mergeBranching[T]}, {"served", MergeSteps[T]}} {
		b.Run(fmt.Sprintf("%s/%s", name, k.name), func(b *testing.B) {
			b.SetBytes(int64(len(out)) * 8) // int64 and float64 elements
			for i := 0; i < b.N; i++ {
				k.run(x, y, Point{}, len(out), out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(out)), "ns/elem")
		})
	}
}

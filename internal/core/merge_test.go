package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		kind := workload.Kinds()[trial%len(workload.Kinds())]
		na, nb := rng.Intn(200), rng.Intn(200)
		a, b := workload.Pair(kind, na, nb, int64(trial))
		out := make([]int32, na+nb)
		Merge(a, b, out)
		want := verify.ReferenceMerge(a, b)
		if !verify.Equal(out, want) {
			t.Fatalf("kind=%v na=%d nb=%d: merge mismatch", kind, na, nb)
		}
	}
}

func TestMergeEmptyInputs(t *testing.T) {
	var empty []int32
	a := []int32{1, 2, 3}
	out := make([]int32, 3)
	Merge(a, empty, out)
	if !verify.Equal(out, a) {
		t.Errorf("merge with empty b: got %v", out)
	}
	Merge(empty, a, out)
	if !verify.Equal(out, a) {
		t.Errorf("merge with empty a: got %v", out)
	}
	Merge(empty, empty, nil)
}

func TestMergePanicsOnBadOutput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short output")
		}
	}()
	Merge([]int32{1}, []int32{2}, make([]int32, 1))
}

func TestMergeFuncStability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		na, nb := rng.Intn(60), rng.Intn(60)
		keysA := workload.SortedUniform(rng, na, 8)
		keysB := workload.SortedUniform(rng, nb, 8)
		a := verify.Tag(keysA, 0)
		b := verify.Tag(keysB, 1)
		out := make([]verify.Tagged, na+nb)
		MergeFunc(a, b, out, verify.TaggedLess)
		if !verify.StableMergeOrder(out) {
			t.Fatalf("trial %d: unstable merge: %+v", trial, out)
		}
	}
}

func TestMergeStepsResumable(t *testing.T) {
	// Splitting the merge into arbitrary chunk sequences must reproduce the
	// monolithic merge exactly, and intermediate points must match the path.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		na, nb := rng.Intn(100), rng.Intn(100)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		total := na + nb
		want := make([]int32, total)
		Merge(a, b, want)
		path := Path(a, b)

		got := make([]int32, total)
		pt := Point{}
		done := 0
		for done < total {
			chunk := 1 + rng.Intn(total-done)
			next := MergeSteps(a, b, pt, chunk, got[done:done+chunk])
			done += chunk
			if next != path[done] {
				t.Fatalf("after %d steps: point %+v, path says %+v", done, next, path[done])
			}
			pt = next
		}
		if !verify.Equal(got, want) {
			t.Fatalf("trial %d: chunked merge differs from monolithic", trial)
		}
	}
}

func TestMergeStepsZeroAndBounds(t *testing.T) {
	a := []int32{1, 3}
	b := []int32{2}
	pt := MergeSteps(a, b, Point{}, 0, nil)
	if pt != (Point{}) {
		t.Errorf("zero steps moved the point: %+v", pt)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for steps beyond path end")
			}
		}()
		MergeSteps(a, b, Point{A: 2, B: 1}, 1, make([]int32, 1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for negative steps")
			}
		}()
		MergeSteps(a, b, Point{}, -1, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for short output")
			}
		}()
		MergeSteps(a, b, Point{}, 3, make([]int32, 2))
	}()
}

func TestMergeStepsFuncAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	less := func(x, y int32) bool { return x < y }
	for trial := 0; trial < 60; trial++ {
		na, nb := rng.Intn(80), rng.Intn(80)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		total := na + nb
		o1 := make([]int32, total)
		o2 := make([]int32, total)
		mid := total / 2
		p1 := MergeSteps(a, b, Point{}, mid, o1)
		MergeSteps(a, b, p1, total-mid, o1[mid:])
		q1 := MergeStepsFunc(a, b, Point{}, mid, o2, less)
		MergeStepsFunc(a, b, q1, total-mid, o2[mid:], less)
		if p1 != q1 || !verify.Equal(o1, o2) {
			t.Fatalf("trial %d: ordered/func disagreement", trial)
		}
	}
}

func TestPathProperties(t *testing.T) {
	// Lemma 8: the k'th point lies on diagonal k. Monotone staircase: each
	// step advances exactly one co-rank by one.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 100; trial++ {
		na, nb := rng.Intn(50), rng.Intn(50)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		path := Path(a, b)
		if len(path) != na+nb+1 {
			t.Fatalf("path length %d, want %d", len(path), na+nb+1)
		}
		for k, pt := range path {
			if pt.Diagonal() != k {
				t.Fatalf("point %d on diagonal %d", k, pt.Diagonal())
			}
			if k > 0 {
				prev := path[k-1]
				da, db := pt.A-prev.A, pt.B-prev.B
				if !(da == 1 && db == 0) && !(da == 0 && db == 1) {
					t.Fatalf("illegal path step %+v -> %+v", prev, pt)
				}
			}
		}
		last := path[len(path)-1]
		if last.A != na || last.B != nb {
			t.Fatalf("path ends at %+v", last)
		}
	}
}

func TestMergeMatrixPropositions(t *testing.T) {
	// Propositions 10 & 11 and Corollary 12 on random small instances.
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 50; trial++ {
		na, nb := 1+rng.Intn(12), 1+rng.Intn(12)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		for i := range a {
			a[i] %= 8
		}
		for i := range b {
			b[i] %= 8
		}
		a, b = sortedCopy(a), sortedCopy(b)
		m := MergeMatrix(a, b)
		// Proposition 10: a 1 forces 1s below and to the left.
		for i := 0; i < na; i++ {
			for j := 0; j < nb; j++ {
				if m[i][j] {
					for k := i; k < na; k++ {
						for l := 0; l <= j; l++ {
							if !m[k][l] {
								t.Fatalf("prop 10 violated at (%d,%d) given 1 at (%d,%d)", k, l, i, j)
							}
						}
					}
				}
			}
		}
		// Corollary 12: along each cross diagonal (i decreasing, j increasing)
		// entries are non-increasing.
		for d := 0; d < na+nb-1; d++ {
			prev := true
			for i := min(d, na-1); i >= 0 && d-i < nb; i-- {
				j := d - i
				cur := m[i][j]
				if cur && !prev {
					t.Fatalf("corollary 12 violated on diagonal %d", d)
				}
				prev = cur
			}
		}
	}
}

func TestMergeQuickPermutation(t *testing.T) {
	f := func(rawA, rawB []int32) bool {
		a, b := sortedCopy(rawA), sortedCopy(rawB)
		out := make([]int32, len(a)+len(b))
		Merge(a, b, out)
		return verify.IsMergeOf(out, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMergedRange(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 80; trial++ {
		na, nb := rng.Intn(200), rng.Intn(200)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		full := make([]int32, na+nb)
		Merge(a, b, full)
		total := na + nb
		lo := 0
		if total > 0 {
			lo = rng.Intn(total + 1)
		}
		hi := lo
		if total-lo > 0 {
			hi = lo + rng.Intn(total-lo+1)
		}
		out := make([]int32, hi-lo)
		MergedRange(a, b, lo, hi, out)
		for i := range out {
			if out[i] != full[lo+i] {
				t.Fatalf("range [%d,%d): position %d differs", lo, hi, i)
			}
		}
	}
}

func TestMergedRangePanics(t *testing.T) {
	a, b := []int32{1}, []int32{2}
	for name, f := range map[string]func(){
		"neg":  func() { MergedRange(a, b, -1, 0, nil) },
		"inv":  func() { MergedRange(a, b, 2, 1, nil) },
		"over": func() { MergedRange(a, b, 0, 3, make([]int32, 3)) },
		"out":  func() { MergedRange(a, b, 0, 2, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

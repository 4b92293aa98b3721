package setops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mergepath/internal/core"
	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

// Reference implementations: simple sequential multiset operations.

func refUnion(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func refIntersect(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func refDiff(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			j++
		default:
			i++
			j++
		}
	}
	return out
}

func sortedDup(rng *rand.Rand, n, domain int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(rng.Intn(domain))
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

func TestOpsMatchReferenceSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(180))
	for trial := 0; trial < 200; trial++ {
		domain := 1 + rng.Intn(20) // heavy duplication
		a := sortedDup(rng, rng.Intn(60), domain)
		b := sortedDup(rng, rng.Intn(60), domain)
		if got, want := Union(a, b, 1), refUnion(a, b); !equal(got, want) {
			t.Fatalf("union a=%v b=%v: got %v want %v", a, b, got, want)
		}
		if got, want := Intersect(a, b, 1), refIntersect(a, b); !equal(got, want) {
			t.Fatalf("intersect a=%v b=%v: got %v want %v", a, b, got, want)
		}
		if got, want := Diff(a, b, 1), refDiff(a, b); !equal(got, want) {
			t.Fatalf("diff a=%v b=%v: got %v want %v", a, b, got, want)
		}
	}
}

// forceParallel runs a walk with explicit cuts (bypassing the size gate) to
// test boundary behaviour deterministically on small inputs.
func forceParallel(a, b []int32, p int, walk walkFunc[int32]) []int32 {
	bounds := core.Partition(a, b, p)
	var out []int32
	for i := 0; i+1 < len(bounds); i++ {
		out = walk(a, b, bounds[i], bounds[i+1], out)
	}
	return out
}

func TestOpsCutSafetyExhaustive(t *testing.T) {
	// Every possible p for small duplicate-heavy inputs: segment
	// concatenation must equal the sequential reference regardless of where
	// cuts fall — the rank-canonical matching property.
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 150; trial++ {
		domain := 1 + rng.Intn(6)
		a := sortedDup(rng, rng.Intn(30), domain)
		b := sortedDup(rng, rng.Intn(30), domain)
		for p := 2; p <= len(a)+len(b)+1; p++ {
			if got, want := forceParallel(a, b, p, unionWalk[int32]), refUnion(a, b); !equal(got, want) {
				t.Fatalf("union p=%d a=%v b=%v: got %v want %v", p, a, b, got, want)
			}
			if got, want := forceParallel(a, b, p, intersectWalk[int32]), refIntersect(a, b); !equal(got, want) {
				t.Fatalf("intersect p=%d a=%v b=%v: got %v want %v", p, a, b, got, want)
			}
			if got, want := forceParallel(a, b, p, diffWalk[int32]), refDiff(a, b); !equal(got, want) {
				t.Fatalf("diff p=%d a=%v b=%v: got %v want %v", p, a, b, got, want)
			}
		}
	}
}

func TestOpsRegressionSplitRun(t *testing.T) {
	// The case that breaks naive per-segment two-pointer walks: x=2 copies
	// in a, y=1 in b, cut between the two a-copies.
	a := []int32{5, 5}
	b := []int32{5}
	if got := forceParallel(a, b, 3, intersectWalk[int32]); len(got) != 1 {
		t.Fatalf("intersect must emit exactly 1 copy, got %v", got)
	}
	if got := forceParallel(a, b, 3, unionWalk[int32]); len(got) != 2 {
		t.Fatalf("union must emit exactly 2 copies, got %v", got)
	}
	if got := forceParallel(a, b, 3, diffWalk[int32]); len(got) != 1 {
		t.Fatalf("diff must emit exactly 1 copy, got %v", got)
	}
}

func TestOpsParallelLargeInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	a := sortedDup(rng, 40000, 500) // big enough to clear the size gate
	b := sortedDup(rng, 30000, 500)
	for _, p := range []int{2, 4, 8} {
		if got, want := Union(a, b, p), refUnion(a, b); !equal(got, want) {
			t.Fatalf("union p=%d: mismatch (lengths %d vs %d)", p, len(got), len(want))
		}
		if got, want := Intersect(a, b, p), refIntersect(a, b); !equal(got, want) {
			t.Fatalf("intersect p=%d: mismatch", p)
		}
		if got, want := Diff(a, b, p), refDiff(a, b); !equal(got, want) {
			t.Fatalf("diff p=%d: mismatch", p)
		}
	}
}

func TestOpsDisjointAndIdentical(t *testing.T) {
	a, b := workload.Pair(workload.AllAGreater, 100, 100, 1)
	if got := Intersect(a, b, 1); len(got) != 0 {
		t.Fatalf("disjoint intersect: %v", got)
	}
	if got := Union(a, b, 1); len(got) != 200 {
		t.Fatalf("disjoint union length: %d", len(got))
	}
	if got := Diff(a, b, 1); len(got) != 100 {
		t.Fatalf("disjoint diff length: %d", len(got))
	}
	same := []int32{1, 2, 3}
	if got := Diff(same, same, 1); len(got) != 0 {
		t.Fatalf("self diff: %v", got)
	}
	if got := Intersect(same, same, 1); !equal(got, same) {
		t.Fatalf("self intersect: %v", got)
	}
	if got := Union(same, same, 1); !equal(got, same) {
		t.Fatalf("self union: %v", got)
	}
}

func TestOpsEmpty(t *testing.T) {
	var empty []int32
	s := []int32{1, 2}
	if got := Union(empty, s, 2); !equal(got, s) {
		t.Fatalf("empty union: %v", got)
	}
	if got := Union(s, empty, 2); !equal(got, s) {
		t.Fatalf("union empty: %v", got)
	}
	if got := Intersect(empty, s, 2); len(got) != 0 {
		t.Fatalf("empty intersect: %v", got)
	}
	if got := Diff(empty, s, 2); len(got) != 0 {
		t.Fatalf("empty diff: %v", got)
	}
	if got := Diff(s, empty, 2); !equal(got, s) {
		t.Fatalf("diff empty: %v", got)
	}
}

func TestOpsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	Union([]int32{1}, []int32{2}, 0)
}

func TestOpsQuick(t *testing.T) {
	sorted := func(raw []int32) []int32 {
		s := append([]int32(nil), raw...)
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		// Shrink the value domain to force duplicates.
		for i := range s {
			s[i] = s[i] % 9
			if s[i] < 0 {
				s[i] += 9
			}
		}
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s
	}
	f := func(rawA, rawB []int32, pSeed uint8) bool {
		a, b := sorted(rawA), sorted(rawB)
		p := 2 + int(pSeed)%6
		return equal(forceParallel(a, b, p, unionWalk[int32]), refUnion(a, b)) &&
			equal(forceParallel(a, b, p, intersectWalk[int32]), refIntersect(a, b)) &&
			equal(forceParallel(a, b, p, diffWalk[int32]), refDiff(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSortednessOfOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(183))
	a := sortedDup(rng, 5000, 40)
	b := sortedDup(rng, 7000, 40)
	for _, out := range [][]int32{
		forceParallel(a, b, 7, unionWalk[int32]),
		forceParallel(a, b, 7, intersectWalk[int32]),
		forceParallel(a, b, 7, diffWalk[int32]),
	} {
		if !verify.Sorted(out) {
			t.Fatal("unsorted output")
		}
	}
}

func equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunWorkerPanicReachesCaller: a walk that panics only on a
// segment after the first (so on a spawned worker, never on the
// caller's) must surface as a panic on run's caller, carrying the
// original value, rather than kill the process.
func TestRunWorkerPanicReachesCaller(t *testing.T) {
	a, b := make([]int64, minParallel), make([]int64, minParallel)
	for i := range a {
		a[i], b[i] = int64(2*i), int64(2*i+1)
	}
	boom := "walk panicked on segment > 0"
	walk := func(a, b []int64, lo, hi core.Point, dst []int64) []int64 {
		if lo != (core.Point{}) {
			panic(boom)
		}
		return intersectWalk(a, b, lo, hi, dst)
	}
	got := func() (v any) {
		defer func() { v = recover() }()
		run(a, b, 2, walk)
		return nil
	}()
	if got != boom {
		t.Fatalf("caller recovered %v, want the walk's panic value", got)
	}
}

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mergepath/internal/workload"
)

func TestPartitionBalance(t *testing.T) {
	// Corollary 7: equisized segments. With integer rounding, every segment
	// length is floor(total/p) or ceil(total/p).
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 100; trial++ {
		na, nb := rng.Intn(500), rng.Intn(500)
		p := 1 + rng.Intn(32)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		bounds := Partition(a, b, p)
		if len(bounds) != p+1 {
			t.Fatalf("want %d boundaries, got %d", p+1, len(bounds))
		}
		total := na + nb
		floor, ceil := total/p, (total+p-1)/p
		for i, l := range SegmentLengths(bounds) {
			if l != floor && l != ceil {
				t.Fatalf("p=%d total=%d: segment %d has length %d (want %d or %d)",
					p, total, i, l, floor, ceil)
			}
		}
	}
}

func TestPartitionBoundariesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		kind := workload.Kinds()[trial%len(workload.Kinds())]
		na, nb := rng.Intn(300), rng.Intn(300)
		p := 1 + rng.Intn(16)
		a, b := workload.Pair(kind, na, nb, int64(trial))
		bounds := Partition(a, b, p)
		if bounds[0] != (Point{}) {
			t.Fatalf("first boundary %+v", bounds[0])
		}
		if bounds[p] != (Point{A: na, B: nb}) {
			t.Fatalf("last boundary %+v", bounds[p])
		}
		for i := 1; i <= p; i++ {
			if bounds[i].A < bounds[i-1].A || bounds[i].B < bounds[i-1].B {
				t.Fatalf("kind=%v: boundaries not monotone: %+v then %+v", kind, bounds[i-1], bounds[i])
			}
		}
	}
}

func TestPartitionSegmentsMergeToWhole(t *testing.T) {
	// Theorem 5 / Corollary 6: independently merging each sub-array pair and
	// concatenating in order yields the full merge.
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		na, nb := rng.Intn(400), rng.Intn(400)
		p := 1 + rng.Intn(12)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		want := make([]int32, na+nb)
		Merge(a, b, want)
		bounds := Partition(a, b, p)
		got := make([]int32, na+nb)
		for i := 0; i < p; i++ {
			lo, hi := bounds[i], bounds[i+1]
			Merge(a[lo.A:hi.A], b[lo.B:hi.B], got[lo.Diagonal():hi.Diagonal()])
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("p=%d: mismatch at %d", p, k)
			}
		}
	}
}

func TestPartitionCountedBound(t *testing.T) {
	// Experiment E11: partition cost is at most (p-1)*(log2(min)+1).
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		na := 1 + rng.Intn(5000)
		nb := 1 + rng.Intn(5000)
		p := 2 + rng.Intn(30)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		_, comparisons := PartitionCounted(a, b, p)
		logMin := 1
		for m := min(na, nb); m > 1; m >>= 1 {
			logMin++
		}
		if bound := (p - 1) * logMin; comparisons > bound {
			t.Fatalf("na=%d nb=%d p=%d: %d comparisons exceeds bound %d", na, nb, p, comparisons, bound)
		}
	}
}

func TestPartitionPanics(t *testing.T) {
	for _, p := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%d: expected panic", p)
				}
			}()
			Partition([]int32{1}, []int32{2}, p)
		}()
	}
}

func TestPartitionDegenerate(t *testing.T) {
	// p=1 must return just the endpoints; p > total must still be valid
	// (empty segments allowed).
	a := []int32{1, 2}
	b := []int32{3}
	bounds := Partition(a, b, 1)
	if len(bounds) != 2 || bounds[0] != (Point{}) || bounds[1] != (Point{A: 2, B: 1}) {
		t.Fatalf("p=1 bounds: %+v", bounds)
	}
	bounds = Partition(a, b, 10)
	if len(bounds) != 11 {
		t.Fatalf("p=10 bounds: %d", len(bounds))
	}
	for _, l := range SegmentLengths(bounds) {
		if l < 0 || l > 1 {
			t.Fatalf("segment length %d with p>total", l)
		}
	}
}

func TestSegmentLengthsEmpty(t *testing.T) {
	if got := SegmentLengths(nil); got != nil {
		t.Errorf("nil boundaries: %v", got)
	}
	if got := SegmentLengths([]Point{{}}); got != nil {
		t.Errorf("single boundary: %v", got)
	}
}

func TestPartitionQuick(t *testing.T) {
	// Property: partition boundaries are exactly the path points at the
	// chosen diagonals.
	f := func(rawA, rawB []int32, pSeed uint8) bool {
		a, b := sortedCopy(rawA), sortedCopy(rawB)
		p := 1 + int(pSeed)%16
		bounds := Partition(a, b, p)
		path := Path(a, b)
		total := len(a) + len(b)
		for i := 0; i <= p; i++ {
			k := i * total / p
			if i == p {
				k = total
			}
			if bounds[i] != path[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

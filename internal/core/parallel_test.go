package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

func TestParallelMergeAllWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, kind := range workload.Kinds() {
		for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
			na, nb := 1000+rng.Intn(2000), 1000+rng.Intn(2000)
			a, b := workload.Pair(kind, na, nb, 99)
			out := make([]int32, na+nb)
			ParallelMerge(a, b, out, p)
			want := verify.ReferenceMerge(a, b)
			if !verify.Equal(out, want) {
				t.Fatalf("kind=%v p=%d: parallel merge differs from reference", kind, p)
			}
		}
	}
}

func TestParallelMergeTinyInputs(t *testing.T) {
	// p can exceed the total element count; empty inputs are legal.
	for _, p := range []int{1, 2, 5, 64} {
		for na := 0; na <= 4; na++ {
			for nb := 0; nb <= 4; nb++ {
				a := make([]int32, na)
				b := make([]int32, nb)
				for i := range a {
					a[i] = int32(2 * i)
				}
				for i := range b {
					b[i] = int32(2*i + 1)
				}
				out := make([]int32, na+nb)
				ParallelMerge(a, b, out, p)
				if !verify.IsMergeOf(out, a, b) {
					t.Fatalf("p=%d na=%d nb=%d: bad merge %v", p, na, nb, out)
				}
			}
		}
	}
}

func TestParallelMergePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for p=0")
			}
		}()
		ParallelMerge([]int32{1}, []int32{2}, make([]int32, 2), 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for bad output length")
			}
		}()
		ParallelMerge([]int32{1}, []int32{2}, make([]int32, 3), 2)
	}()
}

func TestParallelMergeFuncStability(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		na, nb := rng.Intn(500), rng.Intn(500)
		p := 1 + rng.Intn(8)
		keysA := workload.SortedUniform(rng, na, 10)
		keysB := workload.SortedUniform(rng, nb, 10)
		a := verify.Tag(keysA, 0)
		b := verify.Tag(keysB, 1)
		out := make([]verify.Tagged, na+nb)
		ParallelMergeFunc(a, b, out, p, verify.TaggedLess)
		if !verify.StableMergeOrder(out) {
			t.Fatalf("trial %d p=%d: parallel merge not stable", trial, p)
		}
	}
}

func TestParallelMergeQuick(t *testing.T) {
	f := func(rawA, rawB []int32, pSeed uint8) bool {
		a, b := sortedCopy(rawA), sortedCopy(rawB)
		p := 1 + int(pSeed)%12
		out := make([]int32, len(a)+len(b))
		ParallelMerge(a, b, out, p)
		return verify.Equal(out, verify.ReferenceMerge(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParallelMerge1M(bench *testing.B) {
	rng := rand.New(rand.NewSource(34))
	a := workload.SortedUniform32(rng, 1<<20)
	b := workload.SortedUniform32(rng, 1<<20)
	out := make([]int32, len(a)+len(b))
	for _, p := range []int{1, 2, 4, 8} {
		bench.Run(benchName(p), func(bench *testing.B) {
			bench.SetBytes(int64(len(out) * 4))
			for i := 0; i < bench.N; i++ {
				ParallelMerge(a, b, out, p)
			}
		})
	}
}

func benchName(p int) string {
	return "p=" + string(rune('0'+p/10)) + string(rune('0'+p%10))
}

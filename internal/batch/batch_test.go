package batch

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

func makePairs(rng *rand.Rand, k, maxLen int) []Pair[int32] {
	pairs := make([]Pair[int32], k)
	for i := range pairs {
		na, nb := rng.Intn(maxLen), rng.Intn(maxLen)
		a, b := workload.Pair(workload.Kinds()[i%len(workload.Kinds())], na, nb, int64(i))
		pairs[i] = Pair[int32]{A: a, B: b, Out: make([]int32, na+nb)}
	}
	return pairs
}

func TestMergeAllPairsCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(250))
	for trial := 0; trial < 40; trial++ {
		pairs := makePairs(rng, 1+rng.Intn(12), 300)
		Merge(pairs, 1+rng.Intn(8))
		for i, pr := range pairs {
			if !verify.Equal(pr.Out, verify.ReferenceMerge(pr.A, pr.B)) {
				t.Fatalf("trial %d pair %d: wrong merge", trial, i)
			}
		}
	}
}

func TestMergeSkewedPairs(t *testing.T) {
	// One giant pair among many tiny ones: the global balance must still
	// split the giant across workers (correctness check here; the wall
	// time benefit is benchmarked).
	rng := rand.New(rand.NewSource(251))
	pairs := make([]Pair[int32], 9)
	for i := range pairs {
		n := 10
		if i == 4 {
			n = 100000
		}
		a := workload.SortedUniform32(rng, n)
		b := workload.SortedUniform32(rng, n)
		pairs[i] = Pair[int32]{A: a, B: b, Out: make([]int32, 2*n)}
	}
	Merge(pairs, 8)
	for i, pr := range pairs {
		if !verify.IsMergeOf(pr.Out, pr.A, pr.B) {
			t.Fatalf("pair %d incorrect", i)
		}
	}
}

func TestMergeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(252))
	pairs1 := makePairs(rng, 10, 500)
	pairs2 := make([]Pair[int32], len(pairs1))
	for i, pr := range pairs1 {
		pairs2[i] = Pair[int32]{A: pr.A, B: pr.B, Out: make([]int32, len(pr.Out))}
	}
	Merge(pairs1, 5)
	MergeNaive(pairs2, 5)
	for i := range pairs1 {
		if !verify.Equal(pairs1[i].Out, pairs2[i].Out) {
			t.Fatalf("pair %d: balanced and naive disagree", i)
		}
	}
}

func TestMergeEdgeCases(t *testing.T) {
	Merge[int32](nil, 4)                      // no pairs
	Merge([]Pair[int32]{{Out: []int32{}}}, 4) // one empty pair
	MergeNaive([]Pair[int32]{{Out: []int32{}}}, 2)
	pairs := []Pair[int32]{
		{A: []int32{1}, B: nil, Out: make([]int32, 1)},
		{A: nil, B: []int32{2}, Out: make([]int32, 1)},
	}
	Merge(pairs, 16) // p > total clamps
	if pairs[0].Out[0] != 1 || pairs[1].Out[0] != 2 {
		t.Fatalf("degenerate pairs: %v %v", pairs[0].Out, pairs[1].Out)
	}
}

func TestMergePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"p0":        func() { Merge([]Pair[int32]{}, 0) },
		"naive-p0":  func() { MergeNaive([]Pair[int32]{}, 0) },
		"out":       func() { Merge([]Pair[int32]{{A: []int32{1}, Out: nil}}, 1) },
		"naive-out": func() { MergeNaive([]Pair[int32]{{A: []int32{1}, Out: nil}}, 1) },
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

func TestWorkerLoadsBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(253))
	pairs := makePairs(rng, 7, 1000)
	total := 0
	for _, pr := range pairs {
		total += len(pr.Out)
	}
	for _, p := range []int{1, 3, 16} {
		loads := MergeWithLoads(pairs, p)
		sum := 0
		for _, l := range loads {
			sum += l.Elements
			if l.Elements > total/p+1 || l.Elements < total/p-1 {
				t.Fatalf("p=%d: load %d far from %d", p, l.Elements, total/p)
			}
		}
		if sum != total {
			t.Fatalf("p=%d: loads sum %d != %d", p, sum, total)
		}
	}
}

func TestMergeWithLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(255))
	for trial := 0; trial < 20; trial++ {
		pairs := makePairs(rng, 1+rng.Intn(10), 400)
		total := 0
		for _, pr := range pairs {
			total += len(pr.Out)
		}
		p := 1 + rng.Intn(8)
		loads := MergeWithLoads(pairs, p)
		for i, pr := range pairs {
			if !verify.Equal(pr.Out, verify.ReferenceMerge(pr.A, pr.B)) {
				t.Fatalf("trial %d pair %d: wrong merge", trial, i)
			}
		}
		if total == 0 {
			if len(loads) != 0 {
				t.Fatalf("trial %d: empty batch returned %d loads", trial, len(loads))
			}
			continue
		}
		wantP := p
		if wantP > total {
			wantP = total
		}
		if len(loads) != wantP {
			t.Fatalf("trial %d: %d loads, want %d", trial, len(loads), wantP)
		}
		sum := 0
		nonEmpty := 0
		for _, pr := range pairs {
			if len(pr.Out) > 0 {
				nonEmpty++
			}
		}
		pairsSum := 0
		for w, l := range loads {
			sum += l.Elements
			pairsSum += l.Pairs
			if l.Elements > total/wantP+1 || l.Elements < total/wantP {
				t.Fatalf("trial %d worker %d: %d elements, want ~%d", trial, w, l.Elements, total/wantP)
			}
			if l.Elements > 0 && l.Pairs < 1 {
				t.Fatalf("trial %d worker %d: merged %d elements across 0 pairs", trial, w, l.Elements)
			}
		}
		if sum != total {
			t.Fatalf("trial %d: elements sum %d != total %d", trial, sum, total)
		}
		// Each of the nonEmpty pairs is touched by >= 1 worker; a pair
		// split across workers is counted once per worker, and a worker
		// spans at most all pairs, so the sum is bounded both ways.
		if pairsSum < nonEmpty || pairsSum > nonEmpty+wantP-1 {
			t.Fatalf("trial %d: pairs sum %d outside [%d, %d]", trial, pairsSum, nonEmpty, nonEmpty+wantP-1)
		}
	}
}

func TestMergeWithLoadsSkewed(t *testing.T) {
	// One giant pair among tiny ones: every worker must receive work even
	// though most pairs are trivial — the whole point of the global split.
	rng := rand.New(rand.NewSource(256))
	pairs := make([]Pair[int32], 9)
	for i := range pairs {
		n := 4
		if i == 4 {
			n = 50000
		}
		a := workload.SortedUniform32(rng, n)
		b := workload.SortedUniform32(rng, n)
		pairs[i] = Pair[int32]{A: a, B: b, Out: make([]int32, 2*n)}
	}
	loads := MergeWithLoads(pairs, 8)
	for w, l := range loads {
		if l.Elements == 0 {
			t.Errorf("worker %d idle under skew", w)
		}
	}
	for i, pr := range pairs {
		if !verify.IsMergeOf(pr.Out, pr.A, pr.B) {
			t.Fatalf("pair %d incorrect", i)
		}
	}
}

func TestMergeQuick(t *testing.T) {
	f := func(seeds []uint16, pSeed uint8) bool {
		rng := rand.New(rand.NewSource(int64(len(seeds))))
		k := len(seeds)%8 + 1
		pairs := makePairs(rng, k, 60)
		Merge(pairs, 1+int(pSeed)%6)
		for _, pr := range pairs {
			if !verify.Equal(pr.Out, verify.ReferenceMerge(pr.A, pr.B)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBatchSkewed(b *testing.B) {
	// 63 tiny pairs + 1 giant: global balancing vs per-pair scheduling.
	rng := rand.New(rand.NewSource(254))
	build := func() []Pair[int32] {
		pairs := make([]Pair[int32], 64)
		for i := range pairs {
			n := 1 << 8
			if i == 0 {
				n = 1 << 20
			}
			a := workload.SortedUniform32(rng, n)
			bb := workload.SortedUniform32(rng, n)
			pairs[i] = Pair[int32]{A: a, B: bb, Out: make([]int32, 2*n)}
		}
		return pairs
	}
	pairs := build()
	for _, p := range []int{4, 8} {
		b.Run(fmt.Sprintf("balanced/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Merge(pairs, p)
			}
		})
		b.Run(fmt.Sprintf("per-pair/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MergeNaive(pairs, p)
			}
		})
	}
}

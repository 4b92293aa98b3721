package psort

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

func TestSortBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, n := range []int{0, 1, 2, 3, 10, 23, 24, 25, 100, 1000, 12345} {
		for _, p := range []int{1, 2, 3, 4, 8, 16} {
			s := workload.Unsorted(rng, n)
			want := append([]int32(nil), s...)
			Sort(s, p)
			if !verify.Sorted(s) {
				t.Fatalf("n=%d p=%d: not sorted (first violation at %d)", n, p, verify.FirstUnsorted(s))
			}
			if !verify.SameMultiset(s, want) {
				t.Fatalf("n=%d p=%d: elements lost", n, p)
			}
		}
	}
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	for _, p := range []int{1, 4} {
		n := 5000
		asc := make([]int32, n)
		desc := make([]int32, n)
		for i := range asc {
			asc[i] = int32(i)
			desc[i] = int32(n - i)
		}
		Sort(asc, p)
		Sort(desc, p)
		if !verify.Sorted(asc) || !verify.Sorted(desc) {
			t.Fatalf("p=%d: pathological inputs mis-sorted", p)
		}
	}
}

func TestSortDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5000)
		p := 1 + rng.Intn(8)
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(rng.Intn(4))
		}
		want := append([]int32(nil), s...)
		Sort(s, p)
		if !verify.Sorted(s) || !verify.SameMultiset(s, want) {
			t.Fatalf("n=%d p=%d: duplicate-heavy sort failed", n, p)
		}
	}
}

func TestSortFuncStability(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(3000)
		p := 1 + rng.Intn(8)
		keys := workload.UnsortedInts(rng, n, 16)
		s := verify.Tag(keys, 0)
		SortFunc(s, p, verify.TaggedLess)
		if !verify.StableSortOrder(s) {
			t.Fatalf("n=%d p=%d: sort not stable", n, p)
		}
	}
}

func TestSortPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"sort-p0":      func() { Sort([]int32{2, 1}, 0) },
		"sortfunc-p0":  func() { SortFunc([]int32{2, 1}, 0, func(a, b int32) bool { return a < b }) },
		"ce-p0":        func() { CacheEfficientSort([]int32{2, 1}, 64, 0) },
		"ce-tinycache": func() { CacheEfficientSort([]int32{2, 1}, 2, 1) },
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

func TestCacheEfficientSort(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{0, 1, 5, 100, 1000, 9999} {
		for _, cache := range []int{3, 48, 256, 4096} {
			for _, p := range []int{1, 4} {
				s := workload.Unsorted(rng, n)
				want := append([]int32(nil), s...)
				CacheEfficientSort(s, cache, p)
				if !verify.Sorted(s) {
					t.Fatalf("n=%d C=%d p=%d: not sorted", n, cache, p)
				}
				if !verify.SameMultiset(s, want) {
					t.Fatalf("n=%d C=%d p=%d: elements lost", n, cache, p)
				}
			}
		}
	}
}

func TestCacheEfficientSortAgreesWithSort(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(8000)
		s1 := workload.Unsorted(rng, n)
		s2 := append([]int32(nil), s1...)
		Sort(s1, 4)
		CacheEfficientSort(s2, 512, 4)
		if !verify.Equal(s1, s2) {
			t.Fatalf("trial %d: cache-efficient sort diverged", trial)
		}
	}
}

func TestSeqSortKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(2000)
		s := workload.Unsorted(rng, n)
		want := append([]int32(nil), s...)
		if n > 0 {
			seqSort(s, make([]int32, n))
		}
		if !verify.Sorted(s) || !verify.SameMultiset(s, want) {
			t.Fatalf("n=%d: sequential kernel failed", n)
		}
	}
}

func TestInsertionSort(t *testing.T) {
	s := []int32{5, 2, 8, 2, 1}
	insertionSort(s)
	if !verify.Sorted(s) {
		t.Fatalf("insertion sort: %v", s)
	}
	var empty []int32
	insertionSort(empty)
}

func TestSortQuick(t *testing.T) {
	f := func(raw []int32, pSeed uint8) bool {
		s := append([]int32(nil), raw...)
		Sort(s, 1+int(pSeed)%8)
		return verify.Sorted(s) && verify.SameMultiset(s, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheEfficientSortQuick(t *testing.T) {
	f := func(raw []int32, cSeed, pSeed uint8) bool {
		s := append([]int32(nil), raw...)
		CacheEfficientSort(s, 3+int(cSeed), 1+int(pSeed)%6)
		return verify.Sorted(s) && verify.SameMultiset(s, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortDataflowMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(20000)
		p := 1 + rng.Intn(8)
		grain := 2 + rng.Intn(500)
		s1 := workload.Unsorted(rng, n)
		s2 := append([]int32(nil), s1...)
		Sort(s1, p)
		SortDataflow(s2, p, grain)
		if !verify.Equal(s1, s2) {
			t.Fatalf("n=%d p=%d grain=%d: dataflow sort diverges", n, p, grain)
		}
	}
}

func TestSortDataflowDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := workload.Unsorted(rng, 10000)
	want := append([]int32(nil), s...)
	SortDataflow(s, 4, 0) // default grain
	if !verify.Sorted(s) || !verify.SameMultiset(s, want) {
		t.Fatal("default-grain dataflow sort failed")
	}
	// Tiny inputs and degenerate grains.
	var empty []int32
	SortDataflow(empty, 2, 0)
	one := []int32{5}
	SortDataflow(one, 2, 100000)
	pair := []int32{2, 1}
	SortDataflow(pair, 8, 3)
	if pair[0] != 1 || pair[1] != 2 {
		t.Fatalf("pair: %v", pair)
	}
}

func TestSortDataflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SortDataflow([]int32{2, 1}, 0, 0)
}

func TestSortDataflowStability(t *testing.T) {
	// SortDataflow uses the same stable kernels and the same left-first
	// merge tree as Sort, so value-level agreement with the (stability-
	// tested) Sort on duplicate-heavy data is the check here.
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 15; trial++ {
		n := rng.Intn(5000)
		s1 := make([]int32, n)
		for i := range s1 {
			s1[i] = int32(rng.Intn(3))
		}
		s2 := append([]int32(nil), s1...)
		Sort(s1, 4)
		SortDataflow(s2, 4, 64)
		if !verify.Equal(s1, s2) {
			t.Fatalf("trial %d: dataflow diverges on duplicates", trial)
		}
	}
}

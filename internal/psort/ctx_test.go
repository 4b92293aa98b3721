package psort

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestSortCtxSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 1000, 1 << 17, 1<<17 + 77} {
		for _, p := range []int{1, 3, 8} {
			s := make([]int, n)
			for i := range s {
				s[i] = rng.Intn(1 << 20)
			}
			if err := SortCtx(context.Background(), s, p); err != nil {
				t.Fatalf("n=%d p=%d: err %v", n, p, err)
			}
			if !sort.IntsAreSorted(s) {
				t.Fatalf("n=%d p=%d: not sorted", n, p)
			}
		}
	}
}

func TestSortCtxStable(t *testing.T) {
	// Stability is observable through SortFunc only for key/payload pairs,
	// but SortCtx is keyed on cmp.Ordered; instead verify it produces the
	// exact same bytes as Sort (which the existing suite proves stable).
	rng := rand.New(rand.NewSource(2))
	a := make([]int, 1<<16)
	for i := range a {
		a[i] = rng.Intn(100) // heavy ties
	}
	b := append([]int(nil), a...)
	Sort(a, 4)
	if err := SortCtx(context.Background(), b, 4); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SortCtx diverged from Sort at %d", i)
		}
	}
}

func TestSortCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := make([]int, 1<<20)
	for i := range s {
		s[i] = len(s) - i
	}
	start := time.Now()
	err := SortCtx(ctx, s, 4)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("pre-canceled sort took %v", d)
	}
}

func TestSortCtxMidFlightCancel(t *testing.T) {
	// The tentpole's cancellation guarantee: a large sort observes ctx
	// cancellation at a chunk boundary and stops well before completing.
	rng := rand.New(rand.NewSource(3))
	const n = 1 << 23
	data := make([]int, n)
	for i := range data {
		data[i] = rng.Int()
	}

	// Baseline full-sort duration on this machine.
	base := append([]int(nil), data...)
	t0 := time.Now()
	if err := SortCtx(context.Background(), base, 2); err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	work := append([]int(nil), data...)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	t1 := time.Now()
	err := SortCtx(ctx, work, 2)
	aborted := time.Since(t1)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled (aborted after %v, full sort %v)", err, aborted, full)
	}
	if aborted >= full {
		t.Errorf("canceled sort ran %v, full sort only %v — cancellation not observed early", aborted, full)
	}
}

func TestSortCtxDeadline(t *testing.T) {
	// An expired deadline surfaces as DeadlineExceeded, not Canceled.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	s := []int{3, 1, 2, 5, 4, 9, 7, 8}
	s = append(s, s...)
	if err := SortCtx(ctx, s, 2); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSortCtxStatsBalancedRounds: every phase-2 level is one balanced
// round over all of its pairs, so each round engages all p workers
// within one element of n/p — even when the run count is odd and a
// level has fewer pairs than workers. Splitting workers per pair (p/pairs
// each) gave 2.000 on this input: 4 runs, 2 pairs, 1 worker per pair,
// one of them merging twice the elements of the other.
func TestSortCtxStatsBalancedRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 3*65536 + 1
	s := make([]int, n)
	for i := range s {
		s[i] = rng.Int()
	}
	st, err := SortCtxStats(context.Background(), s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(s) {
		t.Fatal("not sorted")
	}
	if st.Runs != 4 || st.MergeRounds != 2 {
		t.Fatalf("runs %d, rounds %d; want 4 runs, 2 rounds", st.Runs, st.MergeRounds)
	}
	if st.MaxImbalance > 1.01 {
		t.Fatalf("MaxImbalance = %.3f, want <= 1.01", st.MaxImbalance)
	}
}

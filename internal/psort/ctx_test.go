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

// TestSortCtxStatsBalancedRounds: phase 1 cuts a multiple of p equal
// runs, so every worker sorts the same number of elements, and phase 2
// is one merge pass with each worker's output within one element of
// n/p. The sizes give exactly p runs (one k-way pass over 3 runs) and
// 2p runs (n just over p·maxRunElems).
func TestSortCtxStatsBalancedRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const p = 3
	for _, tc := range []struct{ n, runs int }{{3*65536 + 1, p}, {p*maxRunElems + 1, 2 * p}} {
		s := make([]int, tc.n)
		for i := range s {
			s[i] = rng.Int()
		}
		st, err := SortCtxStats(context.Background(), s, p)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.IntsAreSorted(s) {
			t.Fatalf("n=%d: not sorted", tc.n)
		}
		if st.Runs != tc.runs || st.Runs%p != 0 || st.MergeRounds > 1 {
			t.Fatalf("n=%d: runs %d, rounds %d; want %d runs (a multiple of p=%d), at most 1 round",
				tc.n, st.Runs, st.MergeRounds, tc.runs, p)
		}
		if st.MaxImbalance > 1.01 {
			t.Fatalf("n=%d: MaxImbalance = %.3f, want <= 1.01", tc.n, st.MaxImbalance)
		}
	}
}

package core

import (
	"cmp"
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// roundChunk is how many output elements a round worker produces
// between cancellation checks (and, when timed, clock reads). A check
// costs one atomic load plus a non-blocking receive on ctx.Done, noise
// against ~64K merge steps, while still bounding how long a canceled
// 100M-element round keeps its workers busy. MergeSteps returns the
// co-rank point it reached, so chunking costs no extra searches.
const roundChunk = 1 << 16

// Pair is one merge of a round: A and B are sorted, and Out receives
// their stable merge and must have length len(A)+len(B).
type Pair[T any] struct {
	A, B, Out []T // sorted inputs A and B; Out receives their merge
}

// WorkerStat reports one worker's share of a merge round: how many
// output elements it produced, how many pairs it touched, and how its
// time split between locating its work (the co-rank searches that
// Theorem 5 charges O(log n) per worker) and the sequential merge steps.
// The Elements spread across workers is the paper's load-balance
// guarantee, directly checkable per round; Search/Merge is the
// partition overhead the paper argues is negligible.
type WorkerStat struct {
	// Elements is how many output elements this worker wrote. On a
	// canceled round it counts only the chunks actually completed.
	Elements int
	// Pairs is how many distinct pairs (whole or partial) the worker
	// merged into.
	Pairs int
	// Search is the time spent locating work: the offset-table search
	// plus one diagonal search per pair touched.
	Search time.Duration
	// Merge is the time spent executing sequential merge steps.
	Merge time.Duration
}

// MergeRound merges every pair with p workers balanced over the pairs'
// combined output: worker w produces global output ranks
// [w·total/p, (w+1)·total/p) of the concatenated outputs, whichever
// pairs those ranks fall in — Algorithm 1 applied to the whole round,
// so skewed pair sizes cannot idle a worker. Each worker finds its first
// pair by binary search over the offset table, then per pair segment
// runs one SearchDiagonal and chunks of MergeSteps. Workers share no
// state but the abandon flag; the only synchronization is the terminal
// barrier. p is clamped to the total output size.
//
// ctx is checked before every chunk: once it is done the round is
// abandoned, the outputs are only partially written, and ctx.Err() is
// returned.
//
// ws is optional. When non-nil it must have length at least p; the
// round then times each worker into ws[w] and returns ws[:w] for the w
// workers engaged (counts are partial on a canceled round; none are
// engaged when ctx is done before the round starts). When nil the round
// reads no clocks and returns nil.
//
// MergeRound panics if p < 1, ws is too short, or an Out is mis-sized;
// it does so on the calling goroutine, before any worker starts. A
// panic inside any worker (a comparator's, under MergeRoundFunc) is
// re-raised on the calling goroutine once every worker has stopped.
func MergeRound[T cmp.Ordered](ctx context.Context, pairs []Pair[T], p int, ws []WorkerStat) ([]WorkerStat, error) {
	return mergeRound(ctx, pairs, p, ws, SearchDiagonal[T], MergeSteps[T])
}

// MergeRoundFunc is MergeRound under a caller-supplied strict weak
// ordering.
func MergeRoundFunc[T any](ctx context.Context, pairs []Pair[T], p int, ws []WorkerStat, less func(x, y T) bool) ([]WorkerStat, error) {
	search := func(a, b []T, k int) Point { return SearchDiagonalFunc(a, b, k, less) }
	steps := func(a, b []T, start Point, n int, out []T) Point {
		return MergeStepsFunc(a, b, start, n, out, less)
	}
	return mergeRound(ctx, pairs, p, ws, search, steps)
}

// round is one MergeRound in flight. search and steps are the ordered
// or less-func kernels, called once per pair segment and once per
// chunk, never per element, so one driver serves both orderings.
type round[T any] struct {
	pairs   []Pair[T]
	offsets []int // offsets[i] is the global rank where pair i begins
	p       int
	ws      []WorkerStat // nil when untimed
	done    <-chan struct{}
	stop    atomic.Bool
	search  func(a, b []T, k int) Point
	steps   func(a, b []T, start Point, n int, out []T) Point
}

func mergeRound[T any](ctx context.Context, pairs []Pair[T], p int, ws []WorkerStat,
	search func(a, b []T, k int) Point, steps func(a, b []T, start Point, n int, out []T) Point) ([]WorkerStat, error) {
	if p < 1 {
		panic("core: worker count must be positive")
	}
	if ws != nil && len(ws) < p {
		panic("core: stats slice shorter than worker count")
	}
	offsets := make([]int, len(pairs)+1)
	for i, pr := range pairs {
		if len(pr.Out) != len(pr.A)+len(pr.B) {
			panic("core: output length mismatch")
		}
		offsets[i+1] = offsets[i] + len(pr.Out)
	}
	if err := ctx.Err(); err != nil {
		return ws[:0], err
	}
	r := &round[T]{pairs: pairs, offsets: offsets, p: min(p, offsets[len(pairs)]),
		done: ctx.Done(), search: search, steps: steps}
	if ws != nil {
		r.ws = ws[:r.p]
		clear(r.ws)
	}
	// Workers 1..p-1 get goroutines; worker 0 runs on the caller. A
	// panic in any worker waits for the rest, then re-raises on the
	// caller, where a server's per-job recover can see it.
	var relay PanicRelay
	var wg sync.WaitGroup
	for w := 1; w < r.p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer relay.Catch()
			r.work(w)
		}(w)
	}
	if r.p > 0 {
		func() {
			defer relay.Catch()
			r.work(0)
		}()
	}
	wg.Wait()
	relay.Rethrow()
	if r.stop.Load() {
		return r.ws, ctx.Err()
	}
	return r.ws, nil
}

// abandoned reports whether the round must stop: another worker saw ctx
// done, or this one does now.
func (r *round[T]) abandoned() bool {
	if r.stop.Load() {
		return true
	}
	select {
	case <-r.done:
		r.stop.Store(true)
		return true
	default:
		return false
	}
}

// work produces worker w's global output ranks, which may span several
// pairs: a partial tail of the first, whole middle pairs and a partial
// head of the last.
func (r *round[T]) work(w int) {
	total := r.offsets[len(r.pairs)]
	lo, hi := w*total/r.p, (w+1)*total/r.p
	var st WorkerStat
	timed := r.ws != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	// First pair whose range extends past lo.
	i := sort.SearchInts(r.offsets, lo+1) - 1
	if timed {
		st.Search += time.Since(t0)
	}
	for ; lo < hi; i++ {
		pr := r.pairs[i]
		pLo := lo - r.offsets[i]                 // local start rank within pair i
		pHi := min(hi-r.offsets[i], len(pr.Out)) // local end rank
		lo = r.offsets[i+1]
		if pLo == pHi {
			continue
		}
		if timed {
			t0 = time.Now()
		}
		at := r.search(pr.A, pr.B, pLo)
		st.Pairs++
		if timed {
			st.Search += time.Since(t0)
		}
		for pLo < pHi && !r.abandoned() {
			end := min(pLo+roundChunk, pHi)
			if timed {
				t0 = time.Now()
			}
			at = r.steps(pr.A, pr.B, at, end-pLo, pr.Out[pLo:end])
			if timed {
				st.Merge += time.Since(t0)
			}
			st.Elements += end - pLo
			pLo = end
		}
	}
	if timed {
		r.ws[w] = st
	}
}

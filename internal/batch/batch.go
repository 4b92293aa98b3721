// Package batch merges many independent sorted-array pairs with one
// globally load-balanced worker pool — the batch/segmented-merge primitive
// that merge-path partitioning enables and that the technique's GPU
// descendants ship as "segmented merge". The point: scheduling one worker
// (or one fixed team) per pair starves when pair sizes are skewed, exactly
// the §I late-rounds problem in another costume. Here the p workers split
// the *total* output across all pairs evenly: worker boundaries are found
// by a binary search over the pairs' offset table followed by an in-pair
// diagonal search, so every worker gets total/p elements regardless of how
// the work is distributed among pairs.
//
// # Stability
//
// Every merge in this package is stable: within a pair, equal elements
// keep their relative order and ties between A and B resolve in favour of
// A (the core tie policy), so each Pair's Out is bit-identical to a
// sequential stable merge of its inputs. The global balancing cannot
// perturb this — workers write disjoint ranges of each pair's one merge
// path, and pairs never interleave (pair i's output goes only to pair i's
// Out). Merge, MergeWithLoads and MergeNaive therefore produce identical
// output for identical input.
package batch

import (
	"cmp"
	"context"
	"sync/atomic"

	"mergepath/internal/core"
)

// Pair is one merge job: A and B are sorted; Out receives the merge and
// must have length len(A)+len(B).
type Pair[T cmp.Ordered] struct {
	A, B, Out []T // sorted inputs A and B; Out receives their merge
}

// Merge merges every pair with p workers balanced over the total output
// size: one core.MergeRound. Panics on a mis-sized Out or p < 1.
func Merge[T cmp.Ordered](pairs []Pair[T], p int) {
	core.MergeRound(context.Background(), roundPairs(pairs), p, nil)
}

// MergeWithLoads is Merge plus observability: it performs the identical
// globally balanced round and returns one core.WorkerStat per worker
// actually used (p is clamped to the total output size, like Merge).
// Elements are always within one of total/p; Pairs shows how pair
// boundaries fell across workers this round; Search/Merge split each
// worker's time between partitioning (offset + diagonal searches) and
// merging.
func MergeWithLoads[T cmp.Ordered](pairs []Pair[T], p int) []core.WorkerStat {
	if p < 1 {
		panic("batch: worker count must be positive")
	}
	ws, _ := core.MergeRound(context.Background(), roundPairs(pairs), p, make([]core.WorkerStat, p))
	return ws
}

// roundPairs converts the batch pairs to the round's pair type.
func roundPairs[T cmp.Ordered](pairs []Pair[T]) []core.Pair[T] {
	out := make([]core.Pair[T], len(pairs))
	for i, pr := range pairs {
		out[i] = core.Pair[T](pr)
	}
	return out
}

// MergeNaive merges the pairs with p workers that each take whole
// pairs, one at a time, from a shared counter — the per-pair
// scheduling baseline the balance experiment compares against: one
// large pair still lands on a single worker. Exported for benchmarks
// and tests.
func MergeNaive[T cmp.Ordered](pairs []Pair[T], p int) {
	if p < 1 {
		panic("batch: worker count must be positive")
	}
	for _, pr := range pairs {
		if len(pr.Out) != len(pr.A)+len(pr.B) {
			panic("batch: output length mismatch")
		}
	}
	var next atomic.Int64
	core.Fork(min(p, len(pairs)), func(int) {
		for i := int(next.Add(1) - 1); i < len(pairs); i = int(next.Add(1) - 1) {
			pr := pairs[i]
			core.Merge(pr.A, pr.B, pr.Out)
		}
	})
}

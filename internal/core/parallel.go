package core

import (
	"cmp"
	"context"
)

// ParallelMerge is Algorithm 1 of the paper: merge the sorted slices a and b
// into out using p concurrent workers.
//
// Each worker i independently computes the intersection of the merge path
// with cross diagonal i*(|a|+|b|)/p by binary search, then executes its
// share of sequential merge steps, writing to a disjoint region of out.
// There are no locks and no inter-worker communication; the only
// synchronization is the terminal barrier, matching the paper's "Barrier"
// at the end of Algorithm 1. It is a one-pair MergeRound.
//
// p < 1 panics; p == 1 degenerates to a sequential merge plus the (small)
// cost of the framework, which experiment E2 measures against Merge.
// out must have length len(a)+len(b).
func ParallelMerge[T cmp.Ordered](a, b, out []T, p int) {
	MergeRound(context.Background(), []Pair[T]{{A: a, B: b, Out: out}}, p, nil)
}

// ParallelMergeFunc is ParallelMerge under a caller-supplied ordering.
func ParallelMergeFunc[T any](a, b, out []T, p int, less func(x, y T) bool) {
	MergeRoundFunc(context.Background(), []Pair[T]{{A: a, B: b, Out: out}}, p, nil, less)
}

package core

import "cmp"

// This file implements the two-level ("hierarchical") refinement of
// Algorithm 1 that the merge-path technique became best known for in its
// GPU adoptions (ModernGPU, Thrust, CUB): a coarse partition splits the
// merge into blocks using global diagonal searches, and each block's team
// of workers then re-partitions its sub-array pair with *local* diagonal
// searches. The local searches bisect ranges of length at most the block
// size, so they cost O(log(blockSize)) instead of O(log min(|A|,|B|)),
// and every team touches only its own O(blockSize) window of the inputs —
// the same locality idea as Algorithm 2, applied to partitioning. On the
// CPU this maps to teams of goroutines; it is benchmarked as an ablation
// against the flat Algorithm 1.

// HierarchicalConfig shapes a two-level merge.
type HierarchicalConfig struct {
	// Blocks is the number of coarse segments (first-level partitions).
	// Values < 1 select one block per team.
	Blocks int
	// TeamSize is the number of workers cooperating inside each block.
	// Values < 1 select 1.
	TeamSize int
}

// HierarchicalMerge merges sorted a and b into out using cfg.Blocks coarse
// segments, each merged concurrently by cfg.TeamSize workers that
// subdivide the block with local diagonal searches. With Blocks=p and
// TeamSize=1 it degenerates to Algorithm 1.
func HierarchicalMerge[T cmp.Ordered](a, b, out []T, cfg HierarchicalConfig) {
	if len(out) != len(a)+len(b) {
		panic("core: output length mismatch")
	}
	blocks := cfg.Blocks
	if blocks < 1 {
		blocks = 1
	}
	team := cfg.TeamSize
	if team < 1 {
		team = 1
	}
	total := len(a) + len(b)
	if blocks > total {
		blocks = max(total, 1)
	}

	// Level 1: global, coarse partition — blocks-1 global diagonal
	// searches, performed in parallel exactly as Theorem 14 permits.
	coarse := make([]Point, blocks+1)
	coarse[blocks] = Point{A: len(a), B: len(b)}
	Fork(blocks-1, func(w int) {
		coarse[w+1] = SearchDiagonal(a, b, (w+1)*total/blocks)
	})

	// Level 2: each block's team re-partitions locally and merges.
	Fork(blocks, func(blk int) {
		lo, hi := coarse[blk], coarse[blk+1]
		teamMerge(a[lo.A:hi.A], b[lo.B:hi.B], out[lo.Diagonal():hi.Diagonal()], team)
	})
}

// teamMerge merges one block with t workers using local diagonal searches.
func teamMerge[T cmp.Ordered](a, b, out []T, t int) {
	total := len(a) + len(b)
	t = min(t, total)
	Fork(t, func(w int) {
		lo, hi := w*total/t, (w+1)*total/t
		start := SearchDiagonal(a, b, lo) // local: bisects <= block size
		MergeSteps(a, b, start, hi-lo, out[lo:hi])
	})
}

// PartitionRanks generalizes Partition to an arbitrary ascending list of
// output ranks (the multiselection of Deo–Sarkar [2] and of the paper's
// Theorem 14 with non-equispaced diagonals): the returned points, one per
// rank, are the merge-path crossings at those diagonals. Ranks outside
// [0, len(a)+len(b)] panic. The searches are independent; they run
// sequentially here because callers typically ask for few ranks.
func PartitionRanks[T cmp.Ordered](a, b []T, ranks []int) []Point {
	points := make([]Point, len(ranks))
	for i, k := range ranks {
		points[i] = SearchDiagonal(a, b, k)
	}
	return points
}

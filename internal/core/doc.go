// Package core implements the Merge Path algorithm of Odeh, Green, Mwassi,
// Shmueli and Birk ("Merge Path — Parallel Merging Made Simple", IPPS 2012).
//
// Merging two sorted arrays A and B corresponds to a monotone staircase walk
// on an |A|x|B| grid: starting at the upper-left corner, the walk moves right
// when A[i] > B[j] (consuming B[j]) and down otherwise (consuming A[i]).
// The paper's key observations are:
//
//   - The k'th point of this "merge path" lies on the k'th cross diagonal of
//     the grid (Lemma 8), so cutting the path at equispaced cross diagonals
//     yields perfectly equal-length segments (Corollary 7).
//   - Along any cross diagonal the binary merge matrix M[i,j] = (A[i] > B[j])
//     is monotonically non-increasing (Corollary 12), so the path's crossing
//     of a diagonal is the unique 1->0 transition and can be located with a
//     binary search using O(log min(|A|,|B|)) comparisons (Theorem 14),
//     without constructing either the path or the matrix.
//
// This package provides the diagonal search (SearchDiagonal), balanced
// partitioning of a merge into any number of independent jobs (Partition),
// the sequential merge kernels, and the paper's Algorithm 1 (Parallel Merge),
// which merges with p workers, no locks, and no inter-worker
// communication. MergeRound applies Algorithm 1 to a whole list of pairs
// at once, cutting their combined output at equal ranks; ParallelMerge
// is its one-pair case, and every parallel merge round in the
// repository's batch, sort, k-way and service layers is one MergeRound.
//
// There is one ordered sequential kernel, MergeSteps: a branch-free
// per-element loop that probes for runs and gallops over them, so
// interleaved and runny inputs are both fast. Merge is MergeSteps over
// the whole path; MergeRound workers, the hierarchical merge,
// MergedRange, psort's comparison leaf and the batch, service and
// public merges all run it. MergeFunc and MergeStepsFunc, the less-func
// forms, keep one branch per element, since the comparator call costs
// more than a mispredicted branch.
//
// Fork is the one fan-out behind every parallel kernel here and in the
// kway, psort, setops, spm and batch packages: p workers, worker 0 on
// the caller and the rest on goroutines, one terminal barrier, and a
// worker panic re-raised on the caller once every worker has returned.
//
// Convention and stability: we resolve ties by consuming from A first
// (the path moves right only when A[i] > B[j], exactly as in the paper's
// Definition 1). Consequently every merge in this package is stable when A
// is regarded as preceding B.
package core

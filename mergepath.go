// Package mergepath is a Go implementation of "Merge Path — Parallel
// Merging Made Simple" (Odeh, Green, Mwassi, Shmueli, Birk; IPPS 2012
// workshops): merging and sorting parallelized by partitioning the merge
// path of two sorted arrays at equispaced cross diagonals, each partition
// point found with an O(log min(|A|,|B|)) binary search.
//
// The package exposes the library's public surface; the implementation
// lives in internal/ subpackages (core, spm, psort, kway) alongside the
// paper's baselines and the reproduction substrates (cache simulator,
// CREW-PRAM checker). See README.md for the map and DESIGN.md /
// EXPERIMENTS.md for the reproduction itself.
//
// All merges and sorts here are stable: equal elements keep their relative
// order, with ties between the two merge inputs resolved in favour of the
// first.
//
// NaN has no place in the total order every kernel merges by, so float
// input must be NaN-free. The entry points that read all of their input
// (the merges, sorts, k-way and batch merges and set operations) check
// this: on a []float32 or []float64 holding a NaN they panic, naming the
// list and the index of the first NaN, before any work starts. The
// sublinear ones (SearchDiagonal, Partition, PartitionRanks, MergedRange)
// and the lazy MergeIter do not scan, and their output on such input is
// unspecified. The Func variants leave the order to the caller's less.
package mergepath

import (
	"cmp"
	"fmt"

	"mergepath/internal/batch"
	"mergepath/internal/core"
	"mergepath/internal/kway"
	"mergepath/internal/psort"
	"mergepath/internal/setops"
	"mergepath/internal/spm"
	"mergepath/internal/stats"
)

// Point is a co-rank pair on the merge grid: crossing the merge path here,
// A elements of the first array and B of the second have been consumed.
// Point{}.Diagonal() == A+B is the output rank of the crossing.
type Point = core.Point

// SearchDiagonal finds where the merge path of a and b crosses cross
// diagonal k (0 <= k <= len(a)+len(b)): the returned point splits the
// merged output into its first k elements (a[:pt.A] and b[:pt.B]) and the
// rest. It runs in O(log min(len(a), len(b), k)) comparisons and never
// materializes anything (Theorem 14 of the paper). As a selection
// primitive it answers "what is the k-th smallest of the union?" without
// merging; see examples/topk.
func SearchDiagonal[T cmp.Ordered](a, b []T, k int) Point {
	return core.SearchDiagonal(a, b, k)
}

// Partition splits the merge of a and b into p contiguous, independent,
// load-balanced jobs (segment lengths differ by at most one element). It
// returns p+1 boundary points; job i merges a[b[i].A:b[i+1].A] with
// b[b[i].B:b[i+1].B] into output positions [b[i].Diagonal(),
// b[i+1].Diagonal()). Cost: p-1 independent diagonal searches.
func Partition[T cmp.Ordered](a, b []T, p int) []Point {
	return core.Partition(a, b, p)
}

// Merge merges sorted slices a and b into out sequentially.
// len(out) must equal len(a)+len(b).
func Merge[T cmp.Ordered](a, b, out []T) {
	noNaN("a", a)
	noNaN("b", b)
	core.Merge(a, b, out)
}

// MergeFunc is Merge under a caller-supplied strict weak ordering;
// less(x, y) reports whether x must sort before y.
func MergeFunc[T any](a, b, out []T, less func(x, y T) bool) {
	core.MergeFunc(a, b, out, less)
}

// ParallelMerge merges sorted a and b into out with p goroutines
// (Algorithm 1 of the paper): lock-free, load-balanced, no inter-worker
// communication; the only synchronization is the final barrier.
func ParallelMerge[T cmp.Ordered](a, b, out []T, p int) {
	noNaN("a", a)
	noNaN("b", b)
	core.ParallelMerge(a, b, out, p)
}

// ParallelMergeFunc is ParallelMerge under a caller-supplied ordering.
func ParallelMergeFunc[T any](a, b, out []T, p int, less func(x, y T) bool) {
	core.ParallelMergeFunc(a, b, out, p, less)
}

// SegmentedConfig configures SegmentedMerge. Window is the paper's L
// (output elements per iteration; choose cacheElements/3); Workers is p.
// Zero values select spm defaults.
type SegmentedConfig = spm.Config

// SegmentedStats reports what a segmented merge did.
type SegmentedStats = spm.Stats

// SegmentedMerge is the cache-efficient merge of the paper's Algorithm 2:
// the merge proceeds in windows of cfg.Window output elements, staging
// only a window of each input at a time, so at most 3*Window elements are
// live at any instant regardless of input size.
func SegmentedMerge[T cmp.Ordered](a, b, out []T, cfg SegmentedConfig) SegmentedStats {
	noNaN("a", a)
	noNaN("b", b)
	return spm.Merge(a, b, out, cfg)
}

// Sort sorts s with p goroutines using parallel merge sort (§III of the
// paper) in p balanced runs and one merge pass. The workers sort a
// multiple of p equal runs of at most 256K elements (exactly p runs up
// to p·256K elements). One co-ranked pass, balanced over the output,
// then merges every run into a scratch buffer, and the result is copied
// back; at p = 2 that pass is one merge-path round. Stable. An []int64
// run of 2048 or more elements is sorted by LSD radix, which yields the
// same bytes as the comparison sort.
func Sort[T cmp.Ordered](s []T, p int) {
	noNaN("s", s)
	psort.Sort(s, p)
}

// SortFunc is Sort under a caller-supplied ordering. Stable.
func SortFunc[T any](s []T, p int, less func(x, y T) bool) {
	psort.SortFunc(s, p, less)
}

// CacheEfficientSort sorts s with p workers while keeping every phase's
// working set within cacheElems elements (§IV.C): cache-sized blocks are
// sorted one at a time, then merged with SegmentedMerge.
func CacheEfficientSort[T cmp.Ordered](s []T, cacheElems, p int) {
	noNaN("s", s)
	psort.CacheEfficientSort(s, cacheElems, p)
}

// MergeK merges k sorted lists into one sorted slice with p workers:
// co-ranking cuts the lists at p equal output ranks and each worker
// merges its window, or one merge-path round for two lists; small
// merges run sequentially. Stable across lists (ties ordered by list
// index).
func MergeK[T cmp.Ordered](lists [][]T, p int) []T {
	for i, l := range lists {
		if j := nanIndex(l); j >= 0 {
			panicNaN(fmt.Sprintf("lists[%d]", i), j)
		}
	}
	return kway.Merge(lists, p)
}

// SegmentedMergeFunc is SegmentedMerge under a caller-supplied ordering.
func SegmentedMergeFunc[T any](a, b, out []T, cfg SegmentedConfig, less func(x, y T) bool) SegmentedStats {
	return spm.MergeFunc(a, b, out, cfg, less)
}

// MergeKFunc is MergeK under a caller-supplied ordering.
func MergeKFunc[T any](lists [][]T, p int, less func(x, y T) bool) []T {
	return kway.MergeFunc(lists, p, less)
}

// HierarchicalConfig shapes HierarchicalMerge: Blocks coarse segments, each
// merged by TeamSize cooperating workers.
type HierarchicalConfig = core.HierarchicalConfig

// HierarchicalMerge is the two-level refinement of ParallelMerge used by
// the technique's GPU descendants (ModernGPU/Thrust/CUB): a coarse global
// partition into blocks, then cheap local diagonal searches within each
// block. Equivalent output to ParallelMerge; different cost structure.
func HierarchicalMerge[T cmp.Ordered](a, b, out []T, cfg HierarchicalConfig) {
	noNaN("a", a)
	noNaN("b", b)
	core.HierarchicalMerge(a, b, out, cfg)
}

// PartitionRanks returns the merge-path crossing points at an arbitrary
// list of output ranks — multiselection: the k-th smallest of the union
// for every k in ranks, located without merging.
func PartitionRanks[T cmp.Ordered](a, b []T, ranks []int) []Point {
	return core.PartitionRanks(a, b, ranks)
}

// Union returns the sorted multiset union of sorted a and b (an element
// with x copies in a and y in b appears max(x,y) times), computed with up
// to p workers over a merge-path partition.
func Union[T cmp.Ordered](a, b []T, p int) []T {
	noNaN("a", a)
	noNaN("b", b)
	return setops.Union(a, b, p)
}

// Intersect returns the sorted multiset intersection (min(x,y) copies).
func Intersect[T cmp.Ordered](a, b []T, p int) []T {
	noNaN("a", a)
	noNaN("b", b)
	return setops.Intersect(a, b, p)
}

// Diff returns the sorted multiset difference a minus b (max(0,x-y)
// copies).
func Diff[T cmp.Ordered](a, b []T, p int) []T {
	noNaN("a", a)
	noNaN("b", b)
	return setops.Diff(a, b, p)
}

// SortDataflow sorts s with p workers using the fine-grain task-graph
// formulation of the merge sort (the §VI Hypercore execution model):
// chunk sorts and merge segments become dependency-linked tasks, so
// merges from different subtree levels overlap instead of waiting at
// round barriers. grain is the leaf chunk size (<2 selects a default).
// Output is identical to Sort's.
func SortDataflow[T cmp.Ordered](s []T, p, grain int) {
	noNaN("s", s)
	psort.SortDataflow(s, p, grain)
}

// MergedRange writes the elements occupying output ranks [lo, hi) of the
// merge of a and b into out (len(out) == hi-lo) without computing the
// rest — pagination over a merged view in O(log min + (hi-lo)) time.
func MergedRange[T cmp.Ordered](a, b []T, lo, hi int, out []T) {
	core.MergedRange(a, b, lo, hi, out)
}

// MergeIter returns a pull-based iterator over the merged sequence of k
// sorted lists (stable across lists), for consumers that must not
// materialize the merge.
func MergeIter[T cmp.Ordered](lists [][]T) *kway.Iter[T] {
	return kway.NewIter(lists)
}

// BatchPair is one job for MergeBatch: sorted inputs A and B, with Out
// sized len(A)+len(B). (A generic type alias of the internal type would
// need Go 1.23; this module keeps a 1.22 floor, so it is a mirror struct.)
type BatchPair[T cmp.Ordered] struct {
	A, B, Out []T
}

// MergeBatch merges many independent sorted pairs with p workers balanced
// over the *total* output (the batch/segmented-merge primitive): skewed
// pair sizes cannot starve workers, unlike one-goroutine-per-pair
// scheduling.
func MergeBatch[T cmp.Ordered](pairs []BatchPair[T], p int) {
	batch.Merge(batchPairs(pairs), p)
}

// BatchWorkerLoad reports one worker's share of a MergeBatchStats round:
// output elements produced and distinct pairs touched. Elements are
// always within one of total/p — the balance guarantee the service layer
// exports per round on its /metrics surface.
type BatchWorkerLoad = stats.WorkerLoad

// MergeBatchStats is MergeBatch plus observability: the identical
// globally balanced round, returning one BatchWorkerLoad per worker used.
func MergeBatchStats[T cmp.Ordered](pairs []BatchPair[T], p int) []BatchWorkerLoad {
	return stats.WorkerLoads(batch.MergeWithLoads(batchPairs(pairs), p))
}

// batchPairs converts pairs to the batch layer's type, checking every
// input for NaN on the way.
func batchPairs[T cmp.Ordered](pairs []BatchPair[T]) []batch.Pair[T] {
	conv := make([]batch.Pair[T], len(pairs))
	for i, pr := range pairs {
		if j := nanIndex(pr.A); j >= 0 {
			panicNaN(fmt.Sprintf("pairs[%d].A", i), j)
		}
		if j := nanIndex(pr.B); j >= 0 {
			panicNaN(fmt.Sprintf("pairs[%d].B", i), j)
		}
		conv[i] = batch.Pair[T]{A: pr.A, B: pr.B, Out: pr.Out}
	}
	return conv
}

// noNaN panics if s holds a NaN, naming list and the index of the
// first one (see the package doc).
func noNaN[T cmp.Ordered](list string, s []T) {
	if i := nanIndex(s); i >= 0 {
		panicNaN(list, i)
	}
}

// nanIndex returns the index of the first NaN in s, or -1. Only a
// []float32 or []float64 is scanned; no other element type has a NaN.
func nanIndex[T cmp.Ordered](s []T) int {
	var zero T
	switch any(zero).(type) {
	case float32, float64:
		for i, x := range s {
			if x != x {
				return i
			}
		}
	}
	return -1
}

func panicNaN(list string, i int) {
	panic(fmt.Sprintf("mergepath: %s holds NaN at index %d; float input must be NaN-free", list, i))
}

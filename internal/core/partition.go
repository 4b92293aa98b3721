package core

import "cmp"

// Partition splits the merge of a and b into p balanced, independent
// segments, returning the p+1 co-rank boundary points; segment i covers
// merge-path steps boundaries[i].Diagonal() up to boundaries[i+1].Diagonal().
//
// The boundaries lie on the equispaced cross diagonals k_i = i*(|a|+|b|)/p
// (Theorem 9), computed as i*total/p so that segment lengths differ by at
// most one element when p does not divide the total (Corollary 7's perfect
// balance, up to integer rounding). Partition performs p-1 independent
// diagonal searches and never constructs the path or matrix.
//
// Partition panics if p < 1.
func Partition[T cmp.Ordered](a, b []T, p int) []Point {
	if p < 1 {
		panic("core: partition count must be positive")
	}
	total := len(a) + len(b)
	boundaries := make([]Point, p+1)
	boundaries[p] = Point{A: len(a), B: len(b)}
	for i := 1; i < p; i++ {
		boundaries[i] = SearchDiagonal(a, b, i*total/p)
	}
	return boundaries
}

// PartitionCounted is Partition instrumented with the total number of
// element comparisons spent in the p-1 diagonal searches, for the work
// complexity experiment (E11): the bound is (p-1)*(log2(min(|a|,|b|))+1).
func PartitionCounted[T cmp.Ordered](a, b []T, p int) ([]Point, int) {
	if p < 1 {
		panic("core: partition count must be positive")
	}
	total := len(a) + len(b)
	boundaries := make([]Point, p+1)
	boundaries[p] = Point{A: len(a), B: len(b)}
	comparisons := 0
	for i := 1; i < p; i++ {
		pt, c := diagonalSearchSteps(a, b, i*total/p)
		boundaries[i] = pt
		comparisons += c
	}
	return boundaries, comparisons
}

// SegmentLengths reports the merge-path length of each segment described by
// a boundary list returned from Partition. With p segments over total
// elements the lengths are each either floor(total/p) or ceil(total/p).
func SegmentLengths(boundaries []Point) []int {
	if len(boundaries) < 2 {
		return nil
	}
	lengths := make([]int, len(boundaries)-1)
	for i := range lengths {
		lengths[i] = boundaries[i+1].Diagonal() - boundaries[i].Diagonal()
	}
	return lengths
}

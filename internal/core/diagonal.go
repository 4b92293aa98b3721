package core

import "cmp"

// Point is a position on the merge grid expressed as a pair of co-ranks:
// crossing the merge path at this point, exactly A elements of the first
// array and B elements of the second have been consumed. A+B is the index
// of the cross diagonal the point lies on (Lemma 8).
type Point struct {
	A int // number of elements consumed from the first array
	B int // number of elements consumed from the second array
}

// Diagonal returns the index of the cross diagonal the point lies on, which
// equals the number of merge steps taken to reach it.
func (p Point) Diagonal() int { return p.A + p.B }

// SearchDiagonal locates the intersection of the merge path of a and b with
// cross diagonal k, for 0 <= k <= len(a)+len(b). It returns the co-rank
// point (ai, bi) with ai+bi = k such that the first k elements of the merged
// output are exactly a[:ai] and b[:bi].
//
// The returned point satisfies the merge-path partition invariant
//
//	ai == 0 || bi == len(b) || a[ai-1] <= b[bi]    (everything consumed from
//	                                                a precedes the rest of b)
//	bi == 0 || ai == len(a) || b[bi-1] <  a[ai]    (everything consumed from
//	                                                b strictly precedes the
//	                                                rest of a; ties go to a)
//
// The search is the binary search of Theorem 14: along diagonal k the merge
// matrix M[i,j] = (a[i] > b[j]) is non-increasing (Corollary 12), and the
// path crosses at the unique transition. Cost is O(log min(len(a), len(b), k))
// comparisons. SearchDiagonal panics if k is out of range.
func SearchDiagonal[T cmp.Ordered](a, b []T, k int) Point {
	if k < 0 || k > len(a)+len(b) {
		panic("core: diagonal index out of range")
	}
	// Feasible co-ranks for a on diagonal k form the interval [lo, hi].
	lo := k - len(b)
	if lo < 0 {
		lo = 0
	}
	hi := k
	if hi > len(a) {
		hi = len(a)
	}
	// Find the smallest ai in [lo, hi] with a[ai] > b[k-ai-1]; entries below
	// the transition have a[ai] <= b[k-ai-1], meaning a[ai] still belongs to
	// the first k outputs and the path passes below this grid point.
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= b[k-mid-1] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return Point{A: lo, B: k - lo}
}

// SearchDiagonalFunc is SearchDiagonal for a caller-supplied strict weak
// ordering. less(x, y) must report whether x orders before y.
func SearchDiagonalFunc[T any](a, b []T, k int, less func(x, y T) bool) Point {
	if k < 0 || k > len(a)+len(b) {
		panic("core: diagonal index out of range")
	}
	lo := k - len(b)
	if lo < 0 {
		lo = 0
	}
	hi := k
	if hi > len(a) {
		hi = len(a)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		// a[mid] <= b[k-mid-1]  <=>  !(b[k-mid-1] < a[mid])
		if !less(b[k-mid-1], a[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return Point{A: lo, B: k - lo}
}

// SearchRank returns the co-rank point splitting the merged output of a and
// b into its first k elements and the rest. It is an alias for
// SearchDiagonal provided for call sites that think in output ranks (the
// formulation of Deo–Sarkar [2]) rather than grid diagonals.
func SearchRank[T cmp.Ordered](a, b []T, k int) Point {
	return SearchDiagonal(a, b, k)
}

// diagonalSearchSteps reports the number of comparisons SearchDiagonal
// performs for the given inputs, for the complexity experiments (E3, E11).
func diagonalSearchSteps[T cmp.Ordered](a, b []T, k int) (Point, int) {
	if k < 0 || k > len(a)+len(b) {
		panic("core: diagonal index out of range")
	}
	lo := k - len(b)
	if lo < 0 {
		lo = 0
	}
	hi := k
	if hi > len(a) {
		hi = len(a)
	}
	steps := 0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		steps++
		if a[mid] <= b[k-mid-1] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return Point{A: lo, B: k - lo}, steps
}

// SearchDiagonalCounted is the instrumented form of SearchDiagonal used by
// the complexity experiments: it returns the crossing point together with
// the number of element comparisons spent finding it.
func SearchDiagonalCounted[T cmp.Ordered](a, b []T, k int) (Point, int) {
	return diagonalSearchSteps(a, b, k)
}

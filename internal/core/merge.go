package core

import "cmp"

// Merge merges the sorted slices a and b into out, which must have length
// len(a)+len(b). The merge is stable with a preceding b: equal elements keep
// their relative order, with ties resolved in favour of a. This is the
// sequential kernel every parallel variant in this repository bottoms out
// in; it is also the "truly sequential merge" baseline of the paper's
// single-thread overhead remark (Section VI).
func Merge[T cmp.Ordered](a, b, out []T) {
	if len(out) != len(a)+len(b) {
		panic("core: output length mismatch")
	}
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// MergeFunc is Merge under a caller-supplied strict weak ordering.
// less(x, y) reports whether x must order before y. Stability matches
// Merge: an element of b is emitted before an element of a only when it is
// strictly less.
func MergeFunc[T any](a, b, out []T, less func(x, y T) bool) {
	if len(out) != len(a)+len(b) {
		panic("core: output length mismatch")
	}
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// MergeSteps advances a merge of a and b by exactly steps elements starting
// from the co-rank point start, writing the emitted elements to out[:steps].
// It returns the co-rank point reached. This is the worker kernel of
// Algorithm 1 (each worker executes (|A|+|B|)/p steps of sequential merge
// from its diagonal intersection) and of Algorithm 2's in-window merges.
//
// start must be a valid merge-path point for (a, b) — i.e. one produced by
// SearchDiagonal — and steps must not exceed the remaining path length.
func MergeSteps[T cmp.Ordered](a, b []T, start Point, steps int, out []T) Point {
	if steps < 0 || start.Diagonal()+steps > len(a)+len(b) {
		panic("core: merge steps out of range")
	}
	if len(out) < steps {
		panic("core: output shorter than step count")
	}
	i, j := start.A, start.B
	k := 0
	for k < steps && i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	// One input is exhausted or the step budget is spent: the rest is a
	// straight copy.
	n := copy(out[k:steps], a[i:])
	i, k = i+n, k+n
	j += copy(out[k:steps], b[j:])
	return Point{A: i, B: j}
}

// MergeStepsFunc is MergeSteps under a caller-supplied ordering.
func MergeStepsFunc[T any](a, b []T, start Point, steps int, out []T, less func(x, y T) bool) Point {
	if steps < 0 || start.Diagonal()+steps > len(a)+len(b) {
		panic("core: merge steps out of range")
	}
	if len(out) < steps {
		panic("core: output shorter than step count")
	}
	i, j := start.A, start.B
	k := 0
	for k < steps && i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	// One input is exhausted or the step budget is spent: the rest is a
	// straight copy.
	n := copy(out[k:steps], a[i:])
	i, k = i+n, k+n
	j += copy(out[k:steps], b[j:])
	return Point{A: i, B: j}
}

// Path materializes the full merge path of a and b as the sequence of
// len(a)+len(b)+1 co-rank points it visits, starting at {0,0} and ending at
// {len(a),len(b)}. Constructing the path costs a full merge's worth of
// comparisons (the reason the paper partitions *without* building it); it
// exists for tests, visualization, and the property-based validation of
// SearchDiagonal: Path(a,b)[k] == SearchDiagonal(a,b,k) for every k.
func Path[T cmp.Ordered](a, b []T) []Point {
	path := make([]Point, 0, len(a)+len(b)+1)
	i, j := 0, 0
	path = append(path, Point{})
	for i < len(a) || j < len(b) {
		switch {
		case i == len(a):
			j++
		case j == len(b):
			i++
		case a[i] <= b[j]: // path moves down: M[i,j] = (a[i] > b[j]) is 0
			i++
		default: // path moves right
			j++
		}
		path = append(path, Point{A: i, B: j})
	}
	return path
}

// MergeMatrix materializes the binary merge matrix M[i][j] = (a[i] > b[j])
// of Definition 1. It is quadratic in size and exists only for tests of the
// matrix propositions (10, 11, Corollary 12) on small inputs.
func MergeMatrix[T cmp.Ordered](a, b []T) [][]bool {
	m := make([][]bool, len(a))
	for i := range m {
		m[i] = make([]bool, len(b))
		for j := range m[i] {
			m[i][j] = a[i] > b[j]
		}
	}
	return m
}

package core

import (
	"cmp"
	"sort"
)

// Merge merges the sorted slices a and b into out, which must have length
// len(a)+len(b). The merge is stable with a preceding b: equal elements keep
// their relative order, with ties resolved in favour of a. It is
// MergeSteps over the whole path, the one ordered kernel every merge in
// this repository bottoms out in; it is also the "truly sequential
// merge" baseline of the paper's single-thread overhead remark (Section
// VI).
func Merge[T cmp.Ordered](a, b, out []T) {
	if len(out) != len(a)+len(b) {
		panic("core: output length mismatch")
	}
	MergeSteps(a, b, Point{}, len(out), out)
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

// runProbe is how many outputs MergeSteps writes between two run
// probes, and the shortest run it copies instead of merging. 32 keeps
// the per-block cost under the run-to-run spread of uniform int64
// merges (BenchmarkMergeKernels); 16 cost about 4%.
const runProbe = 32

// MergeSteps advances a merge of a and b by exactly steps elements starting
// from the co-rank point start, writing the emitted elements to out[:steps].
// It returns the co-rank point reached. This is the worker kernel of
// Algorithm 1 (each worker executes (|A|+|B|)/p steps of sequential merge
// from its diagonal intersection) and of Algorithm 2's in-window merges.
//
// The per-element loop (mergeBlock) is branch-free, so interleaved
// inputs cost no branch mispredictions. Every runProbe outputs the
// kernel probes for a run instead: when the next runProbe elements of
// one input all order before the other input's head (a[i+runProbe-1]
// <= b[j], or b[j+runProbe-1] < a[i], strict so ties still go to a),
// it gallops to the end of that run and copies it whole. The input's
// runs choose the path; nothing else does.
//
// start must be a valid merge-path point for (a, b) — i.e. one produced by
// SearchDiagonal — and steps must not exceed the remaining path length.
func MergeSteps[T cmp.Ordered](a, b []T, start Point, steps int, out []T) Point {
	i, j := start.A, start.B
	if steps < 0 || i+j+steps > len(a)+len(b) {
		panic("core: merge steps out of range")
	}
	if len(out) < steps {
		panic("core: output shorter than step count")
	}
	out = out[:steps]
	k := 0
	for k < len(out) && i < len(a) && j < len(b) {
		if i+runProbe <= len(a) && a[i+runProbe-1] <= b[j] {
			bj := b[j]
			n := gallop(a[i:min(len(a), i+len(out)-k)], func(v T) bool { return v <= bj })
			k += copy(out[k:], a[i:i+n])
			i += n
			continue
		}
		if j+runProbe <= len(b) && b[j+runProbe-1] < a[i] {
			ai := a[i]
			n := gallop(b[j:min(len(b), j+len(out)-k)], func(v T) bool { return v < ai })
			k += copy(out[k:], b[j:j+n])
			j += n
			continue
		}
		m := min(runProbe, len(out)-k, len(a)-i, len(b)-j)
		i, j = mergeBlock(a, b, i, j, out[k:k+m])
		k += m
	}
	// One input is exhausted or the step budget is spent: the rest is a
	// straight copy.
	n := copy(out[k:], a[i:])
	i, k = i+n, k+n
	j += copy(out[k:], b[j:])
	return Point{A: i, B: j}
}

// mergeBlock writes len(out) merge steps of a and b from (i, j) into
// out and returns the point reached; a[i:] and b[j:] must each hold at
// least len(out) elements. Both heads are loaded every step and the
// flag d = (a[i] <= b[j]) picks the output by index and advances i or
// j, so the loop has no data-dependent branch for any element type (a
// float selection written as an if compiles to a branch). It stays out
// of line: inlined into MergeSteps, whose probe and copy code hold
// many registers, it measured about 5% slower on uniform int64 input.
//
//go:noinline
func mergeBlock[T cmp.Ordered](a, b []T, i, j int, out []T) (int, int) {
	for o := range out {
		av, bv := a[i], b[j]
		d := 0
		if av <= bv {
			d = 1
		}
		out[o] = [2]T{bv, av}[d]
		i += d
		j += 1 - d
	}
	return i, j
}

// gallop returns the length of the run of s that satisfies before,
// given that the first min(runProbe, len(s)) elements do and that
// before holds on a prefix of s. It probes runProbe, runProbe+1,
// runProbe+3, ... elements in, then binary-searches the last gap, so a
// run of n elements costs O(log n) comparisons.
func gallop[T any](s []T, before func(T) bool) int {
	lo, step := min(runProbe, len(s)), 1 // s[:lo] is in the run
	for lo+step <= len(s) && before(s[lo+step-1]) {
		lo += step
		step *= 2
	}
	hi := min(lo+step-1, len(s)) // s[hi] is not in the run, or hi == len(s)
	return lo + sort.Search(hi-lo, func(n int) bool { return !before(s[lo+n]) })
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

// Package setops implements parallel sorted-set operations — union,
// intersection, difference — on top of merge-path partitioning. These are
// the postings-list / sorted-index workloads where parallel merging earns
// its keep in practice (§I motivates merging as a building block; set
// operations are the same two-pointer walk with filtering).
//
// Parallelization reuses Corollary 6 unchanged: any cut of the merge path
// yields independent sub-walks whose outputs concatenate in order. The
// wrinkle is duplicates straddling a cut: a naive per-segment two-pointer
// walk can match the same b-copy from two workers. The implementation is
// therefore *rank-canonical*: within an equal-value run holding x copies
// in a and y copies in b, the t-th a-copy is defined to match the t-th
// b-copy. Every emission decision depends only on a copy's global rank
// within its run (recovered with one binary search per distinct boundary
// value) and the run's global counts — quantities identical no matter
// where cuts fall, so segments never disagree or double-count.
//
// Multiset semantics for an element with x copies in a and y in b:
//
//	Union:     max(x, y) copies
//	Intersect: min(x, y) copies
//	Diff:      max(0, x-y) copies
//
// With true set inputs (no internal duplicates) these are the classic set
// operations. Inputs must be sorted; outputs are sorted.
package setops

import (
	"cmp"

	"mergepath/internal/core"
)

// minParallel is the total input size under which parallel dispatch is
// pure overhead and the walks run sequentially.
const minParallel = 1 << 12

// Union returns the sorted multiset union of a and b using up to p
// workers.
func Union[T cmp.Ordered](a, b []T, p int) []T {
	return run(a, b, p, unionWalk[T])
}

// Intersect returns the sorted multiset intersection.
func Intersect[T cmp.Ordered](a, b []T, p int) []T {
	return run(a, b, p, intersectWalk[T])
}

// Diff returns the sorted multiset difference a minus b.
func Diff[T cmp.Ordered](a, b []T, p int) []T {
	return run(a, b, p, diffWalk[T])
}

// walkFunc processes merge-path segment [lo, hi), appending the
// operation's output to dst. It may read anywhere in a and b (to recover
// global run ranks) but owns only its segment's emissions.
type walkFunc[T cmp.Ordered] func(a, b []T, lo, hi core.Point, dst []T) []T

func run[T cmp.Ordered](a, b []T, p int, walk walkFunc[T]) []T {
	if p < 1 {
		panic("setops: worker count must be positive")
	}
	total := len(a) + len(b)
	if limit := total / minParallel; p > limit {
		p = limit
	}
	if p <= 1 {
		return walk(a, b, core.Point{}, core.Point{A: len(a), B: len(b)}, nil)
	}
	bounds := core.Partition(a, b, p)
	parts := make([][]T, p)
	core.Fork(p, func(i int) {
		parts[i] = walk(a, b, bounds[i], bounds[i+1], nil)
	})
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	out := make([]T, 0, n)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// lowerBound returns the first index with s[i] >= v.
func lowerBound[T cmp.Ordered](s []T, v T) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index with s[i] > v.
func upperBound[T cmp.Ordered](s []T, v T) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// appendN appends c copies of v.
func appendN[T any](dst []T, v T, c int) []T {
	for ; c > 0; c-- {
		dst = append(dst, v)
	}
	return dst
}

// intersectWalk emits, for each a-run slice [i, e) of value v inside the
// segment, the copies whose global run rank t (t = index - first index of
// v in a) falls below y = count of v in b: rank-canonical pairing.
func intersectWalk[T cmp.Ordered](a, b []T, lo, hi core.Point, dst []T) []T {
	i := lo.A
	bHint := lo.B // b is only consulted from here rightward
	for i < hi.A {
		v := a[i]
		e := i + 1
		for e < hi.A && a[e] == v {
			e++
		}
		// Global rank of a[i] within its run: nonzero only when the
		// segment starts mid-run, so the binary search is rare.
		t0 := 0
		if i > 0 && a[i-1] == v {
			t0 = i - lowerBound(a[:i], v)
		}
		yLo := bHint + lowerBound(b[bHint:], v)
		yHi := yLo + upperBound(b[yLo:], v)
		bHint = yHi
		y := yHi - yLo
		// Copies t0 .. t0+(e-i)-1 pair with b-copies while t < y.
		emit := min(e-i, max(0, y-t0))
		dst = appendN(dst, v, emit)
		i = e
	}
	return dst
}

// diffWalk emits a-copies whose rank t is at least y (the first y copies
// are cancelled by b's copies, canonically).
func diffWalk[T cmp.Ordered](a, b []T, lo, hi core.Point, dst []T) []T {
	i := lo.A
	bHint := lo.B
	for i < hi.A {
		v := a[i]
		e := i + 1
		for e < hi.A && a[e] == v {
			e++
		}
		t0 := 0
		if i > 0 && a[i-1] == v {
			t0 = i - lowerBound(a[:i], v)
		}
		yLo := bHint + lowerBound(b[bHint:], v)
		yHi := yLo + upperBound(b[yLo:], v)
		bHint = yHi
		y := yHi - yLo
		// Copy with rank t survives iff t >= y.
		surviveFrom := max(t0, y)
		emit := max(0, t0+(e-i)-surviveFrom)
		dst = appendN(dst, v, emit)
		i = e
	}
	return dst
}

// unionWalk walks the segment's path steps in order: every a-step emits;
// a b-step of value v and global run rank t emits iff t >= x, where x is
// v's count in a (those b-copies have no a-partner). Order is preserved
// because the path visits all of a run's a-steps before its b-steps
// (the tie rule) and omissions do not reorder.
func unionWalk[T cmp.Ordered](a, b []T, lo, hi core.Point, dst []T) []T {
	i, j := lo.A, lo.B
	for i < hi.A || j < hi.B {
		if i < hi.A && (j >= len(b) || a[i] <= b[j]) {
			dst = append(dst, a[i])
			i++
			continue
		}
		// b-step for value v: process the whole in-segment b-run at once.
		v := b[j]
		e := j + 1
		for e < hi.B && b[e] == v {
			e++
		}
		t0 := 0
		if j > 0 && b[j-1] == v {
			t0 = j - lowerBound(b[:j], v)
		}
		// Count of v in a. The path visits all equal a-copies before these
		// b-steps, and i tracks the path's global a-co-rank, so every
		// v-copy in a lies inside a[:i].
		aEnd := min(i, len(a))
		xLo := lowerBound(a[:aEnd], v)
		x := upperBound(a[xLo:aEnd], v)
		// Ranks t0 .. t0+(e-j)-1; emit those with t >= x.
		emitFrom := max(t0, x)
		emit := max(0, t0+(e-j)-emitFrom)
		dst = appendN(dst, v, emit)
		j = e
	}
	return dst
}

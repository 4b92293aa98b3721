package core

import "cmp"

// MergedRange writes the elements that would occupy output ranks
// [lo, hi) of the merge of a and b into out (len(out) == hi-lo), without
// merging anything outside that window. Cost: two diagonal searches plus
// hi-lo merge steps — the "page k of the merged result" primitive that
// falls directly out of Theorem 14. Panics if the range is invalid.
func MergedRange[T cmp.Ordered](a, b []T, lo, hi int, out []T) {
	if lo < 0 || hi < lo || hi > len(a)+len(b) {
		panic("core: merged range out of bounds")
	}
	if len(out) != hi-lo {
		panic("core: output length mismatch")
	}
	start := SearchDiagonal(a, b, lo)
	MergeSteps(a, b, start, hi-lo, out)
}

// The scatter split: the paper's diagonal co-ranking partition applied
// at fleet granularity. Theorem 5 partitions one merge into p disjoint,
// balanced windows with no communication between workers; exactly the
// same cut — SearchDiagonal at equally spaced output ranks — carves one
// large merge request into sub-requests that independent backends can
// serve with no coordination. Each window is a contiguous range of the
// *output*, so each sub-merge result is copied straight into its place
// and nothing is merged after the fan-out; the result is byte-identical
// to a single-node merge, duplicates included, because the cut inherits
// the search's tie rule (ties go to the first array).
package router

import "mergepath/internal/core"

// Window is one scatter unit: the sub-merge of A[ALo:AHi] and
// B[BLo:BHi], which produces exactly output ranks [ALo+BLo, AHi+BHi) of
// the full merge. Windows returned by SplitMerge tile the output:
// window i+1 begins where window i ends.
type Window struct {
	ALo, AHi int // half-open range of the first input consumed by this window
	BLo, BHi int // half-open range of the second input consumed by this window
}

// Len reports the window's output size.
func (w Window) Len() int { return (w.AHi - w.ALo) + (w.BHi - w.BLo) }

// SplitMerge cuts the merge of sorted a and b into parts contiguous
// output windows of near-equal size (they differ by at most one
// element, Theorem 5's balance guarantee). parts is clamped to
// [1, len(a)+len(b)] (and to 1 when both inputs are empty), so every
// returned window is non-empty. The concatenation of the windows'
// locally merged outputs is exactly the full merge.
func SplitMerge(a, b []int64, parts int) []Window {
	n := len(a) + len(b)
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	if n == 0 {
		return []Window{{}}
	}
	ws := make([]Window, 0, parts)
	prev := core.Point{}
	for i := 1; i <= parts; i++ {
		// Rank boundaries i·n/parts make window sizes differ by ≤1.
		pt := core.SearchDiagonal(a, b, i*n/parts)
		ws = append(ws, Window{ALo: prev.A, AHi: pt.A, BLo: prev.B, BHi: pt.B})
		prev = pt
	}
	return ws
}

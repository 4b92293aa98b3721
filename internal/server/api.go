package server

import (
	"cmp"
	"fmt"
	"slices"

	"mergepath/internal/verify"
)

// Wire types for the JSON endpoints. Elements are int64 on the wire —
// the engine underneath is generic, but a service needs one concrete
// schema, and int64 survives JSON number round-trips for the full range
// of keys the examples (timestamps, doc ids, ranks) use in practice.

// MergeRequest is the body of POST /v1/merge: two sorted arrays.
type MergeRequest struct {
	A []int64 `json:"a"` // first sorted input
	B []int64 `json:"b"` // second sorted input
}

// MergeResponse carries the stable merge of A and B.
type MergeResponse struct {
	Result []int64 `json:"result"` // the merged array, len(A)+len(B) elements
}

// SortRequest is the body of POST /v1/sort: one unsorted array.
type SortRequest struct {
	Data []int64 `json:"data"` // elements to sort, any order
}

// SortResponse carries the sorted array.
type SortResponse struct {
	Result []int64 `json:"result"` // Data in ascending order
}

// MergeKRequest is the body of POST /v1/mergek: k sorted lists.
type MergeKRequest struct {
	Lists [][]int64 `json:"lists"` // each list individually sorted
}

// MergeKResponse carries the k-way merge (stable across lists).
type MergeKResponse struct {
	Result []int64 `json:"result"` // all lists merged into one sorted array
}

// SetOpsRequest is the body of POST /v1/setops. Op is one of "union",
// "intersect", "diff"; A and B must be sorted.
type SetOpsRequest struct {
	Op string  `json:"op"` // "union", "intersect" or "diff"
	A  []int64 `json:"a"`  // left sorted operand
	B  []int64 `json:"b"`  // right sorted operand
}

// SetOpsResponse carries the sorted multiset result.
type SetOpsResponse struct {
	Result []int64 `json:"result"` // sorted multiset result of Op
}

// SelectRequest is the body of POST /v1/select: diagonal rank selection.
// K is an output rank in [0, len(A)+len(B)].
type SelectRequest struct {
	A []int64 `json:"a"` // first sorted input
	B []int64 `json:"b"` // second sorted input
	K int     `json:"k"` // output rank to locate, in [0, len(A)+len(B)]
}

// SelectResponse reports where the merge path crosses diagonal K: the
// first K elements of the merge are A[:ARank] and B[:BRank]. Kth is the
// K-th smallest of the union (the element at output rank K-1), present
// when K >= 1.
type SelectResponse struct {
	ARank int    `json:"a_rank"`        // elements of A among the K smallest
	BRank int    `json:"b_rank"`        // elements of B among the K smallest
	Kth   *int64 `json:"kth,omitempty"` // the K-th smallest element; omitted when K == 0
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"` // human-readable failure description
}

// floatResult is the JSON shape of a float64 array response — the same
// {"result": ...} document as MergeResponse, float-typed. Float arrays
// only enter through the binary frame, but a client may still Accept
// JSON for the answer.
type floatResult struct {
	Result []float64 `json:"result"` // the computed array
}

// CheckSorted validates that the request array called name is in
// ascending order; the error is the 400 text every tier returns for it.
// The success path is one slices.IsSorted scan. Only on failure does a
// second scan name the first violating index and both values, so a
// client learns exactly where its sort invariant broke. Generic because
// the binary frame carries float64 arrays over the same endpoints as
// JSON's int64. Float64 arrays reach it NaN-free: decodeFrame rejects a
// NaN-bearing frame with a 400 first (docs/WIRE.md), so cmp.Less here
// and the kernels' < agree on one order, with ±0 equal.
func CheckSorted[T cmp.Ordered](name string, s []T) error {
	if slices.IsSorted(s) {
		return nil
	}
	i := verify.FirstUnsorted(s)
	return fmt.Errorf("input %q is not sorted: element %d (%v) < element %d (%v)",
		name, i, s[i], i-1, s[i-1])
}

package psort

import (
	"cmp"

	"mergepath/internal/core"
	"mergepath/internal/sched"
)

// SortDataflow sorts s with p workers by expressing the whole merge sort
// as a fine-grain task graph (the Hypercore execution model of §VI)
// instead of barrier-separated rounds: leaf tasks sort grain-sized chunks;
// each merge node becomes one partition task plus one task per output
// segment, and a segment task becomes runnable the moment its inputs'
// subtree finishes — merges from different subtrees and different tree
// levels execute concurrently, which removes the barriers between the
// paper's merge rounds (Sort itself now has one merge pass instead).
//
// grain is the leaf chunk size; values < 2 select a default that yields a
// few tasks per worker per level. The result is identical (stable) to
// Sort's.
func SortDataflow[T cmp.Ordered](s []T, p, grain int) {
	if p < 1 {
		panic("psort: worker count must be positive")
	}
	n := len(s)
	if n < 2 {
		return
	}
	if grain < 2 {
		grain = max(n/(4*p), insertionThreshold)
	}
	if grain > n {
		grain = n
	}

	scratch := make([]T, n)
	var g sched.Graph

	// Leaves: chunk sorts over s.
	type node struct {
		lo, hi int
		ready  []*sched.Task // tasks whose completion makes the run sorted
	}
	var level []node
	for lo := 0; lo < n; lo += grain {
		hi := min(lo+grain, n)
		task := g.Add(func() {
			seqSort(s[lo:hi], scratch[lo:hi])
		})
		level = append(level, node{lo: lo, hi: hi, ready: []*sched.Task{task}})
	}

	// Merge tree: ping-pong between s and scratch per level.
	src, dst := s, scratch
	for len(level) > 1 {
		var next []node
		for i := 0; i+1 < len(level); i += 2 {
			left, right := level[i], level[i+1]
			lo, mid, hi := left.lo, right.lo, right.hi
			deps := append(append([]*sched.Task(nil), left.ready...), right.ready...)
			// Partition task: computes the segment boundaries once both
			// children are sorted in src.
			segCount := max((hi-lo)/grain, 1)
			bounds := make([]core.Point, segCount+1)
			srcLocal, dstLocal := src, dst
			partition := g.Add(func() {
				copy(bounds, core.Partition(srcLocal[lo:mid], srcLocal[mid:hi], segCount))
			}, deps...)
			segTasks := make([]*sched.Task, segCount)
			for sIdx := 0; sIdx < segCount; sIdx++ {
				sIdx := sIdx
				segTasks[sIdx] = g.Add(func() {
					b0, b1 := bounds[sIdx], bounds[sIdx+1]
					core.MergeSteps(srcLocal[lo:mid], srcLocal[mid:hi], b0,
						b1.Diagonal()-b0.Diagonal(), dstLocal[lo+b0.Diagonal():lo+b1.Diagonal()])
				}, partition)
			}
			next = append(next, node{lo: lo, hi: hi, ready: segTasks})
		}
		if len(level)%2 == 1 {
			last := level[len(level)-1]
			srcLocal, dstLocal := src, dst
			carry := g.Add(func() {
				copy(dstLocal[last.lo:last.hi], srcLocal[last.lo:last.hi])
			}, last.ready...)
			next = append(next, node{lo: last.lo, hi: last.hi, ready: []*sched.Task{carry}})
		}
		level = next
		src, dst = dst, src
	}

	g.Run(p)
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

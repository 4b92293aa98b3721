// Package spm implements Algorithm 2 of the paper, Segmented Parallel Merge
// (§IV.B): the merge path is cut into windows of length L = C/3 (C the
// cache size in elements); each window stages the next L unconsumed
// elements of each input into cyclic buffers, locates the p in-window
// worker start points by diagonal binary search over the staged elements
// (Theorem 16 guarantees the staged prefixes suffice), merges L output
// elements in parallel, writes them out, and refills only what was
// consumed. At any instant at most 3L = C elements (two input buffers plus
// the output window) are live, so the working set fits the cache
// regardless of N.
package spm

import (
	"cmp"

	"mergepath/internal/core"
)

// Config parameterizes a segmented merge.
type Config struct {
	// Window is L, the number of output elements produced per iteration;
	// the paper sets L = C/3 for a cache of C elements. Values < 1 select
	// DefaultWindow.
	Window int
	// Workers is p, the number of goroutines merging inside each window.
	// Values < 1 select 1.
	Workers int
}

// DefaultWindow corresponds to one third of a 32 KB L1 holding 4-byte
// elements: (32<<10)/4/3 ≈ 2730, rounded to a friendly power of two.
const DefaultWindow = 2048

// Stats reports what a segmented merge did, for the cache experiments and
// the L-sweep ablation.
type Stats struct {
	Windows     int // number of sequential iterations (≈ ceil(total/L))
	StagedA     int // elements of a that passed through the staging buffer
	StagedB     int // elements of b staged
	MaxResident int // max staged+window elements live at once (≤ 3L)
}

// Merge merges sorted a and b into out (len(out) == len(a)+len(b)) with the
// segmented parallel merge and returns its statistics.
func Merge[T cmp.Ordered](a, b, out []T, cfg Config) Stats {
	if len(out) != len(a)+len(b) {
		panic("spm: output length mismatch")
	}
	l := cfg.Window
	if l < 1 {
		l = DefaultWindow
	}
	p := cfg.Workers
	if p < 1 {
		p = 1
	}

	bufA := newRing[T](l)
	bufB := newRing[T](l)
	var stats Stats
	remA, remB := a, b // unfetched suffixes
	done := 0
	total := len(out)
	for done < total {
		// Step 1 of Algorithm 2: fetch replacements for consumed elements —
		// on the first iteration this fills both buffers to L.
		fetched := bufA.fill(remA, l-bufA.len())
		remA = remA[fetched:]
		stats.StagedA += fetched
		fetched = bufB.fill(remB, l-bufB.len())
		remB = remB[fetched:]
		stats.StagedB += fetched

		steps := l
		if avail := bufA.len() + bufB.len(); steps > avail {
			steps = avail
		}
		if resident := bufA.len() + bufB.len() + steps; resident > stats.MaxResident {
			stats.MaxResident = resident
		}

		// Steps 2–3: in-window parallel merge, written straight to the
		// output segment ("write the results out to memory").
		usedA, usedB := mergeWindow(bufA, bufB, out[done:done+steps], p)
		bufA.drop(usedA)
		bufB.drop(usedB)
		done += steps
		stats.Windows++
	}
	return stats
}

// mergeWindow merges exactly len(window) steps from the staged buffers into
// window using p workers, and reports how many elements of each buffer were
// consumed. It is Theorem 16 in code: the staged prefixes are long enough
// for every in-window diagonal. The last worker's end point is the
// window-final co-rank, which doubles as the consumption count.
func mergeWindow[T cmp.Ordered](bufA, bufB *ring[T], window []T, p int) (usedA, usedB int) {
	steps := len(window)
	p = min(p, steps)
	core.Fork(p, func(i int) {
		lo, hi := i*steps/p, (i+1)*steps/p
		var sa, sb int
		if i > 0 {
			sa, sb = ringSearchDiagonal(bufA, bufB, lo)
		}
		ea, eb := ringMergeSteps(bufA, bufB, sa, sb, hi-lo, window[lo:hi])
		if i == p-1 {
			usedA, usedB = ea, eb
		}
	})
	return usedA, usedB
}

// ringSearchDiagonal is core.SearchDiagonal transplanted onto the cyclic
// staging buffers: find (i, j), i+j = k, with bufA[i-1] <= bufB[j] and
// bufB[j-1] < bufA[i] (ties to a).
func ringSearchDiagonal[T cmp.Ordered](bufA, bufB *ring[T], k int) (int, int) {
	lo := k - bufB.len()
	if lo < 0 {
		lo = 0
	}
	hi := k
	if hi > bufA.len() {
		hi = bufA.len()
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bufA.at(mid) <= bufB.at(k-mid-1) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, k - lo
}

// ringMergeSteps merges exactly steps elements starting from staged
// co-ranks (i, j) into dst, returning the final co-ranks.
func ringMergeSteps[T cmp.Ordered](bufA, bufB *ring[T], i, j, steps int, dst []T) (int, int) {
	na, nb := bufA.len(), bufB.len()
	k := 0
	for k < steps && i < na && j < nb {
		av, bv := bufA.at(i), bufB.at(j)
		if av <= bv {
			dst[k] = av
			i++
		} else {
			dst[k] = bv
			j++
		}
		k++
	}
	for k < steps && i < na {
		dst[k] = bufA.at(i)
		i++
		k++
	}
	for k < steps && j < nb {
		dst[k] = bufB.at(j)
		j++
		k++
	}
	return i, j
}

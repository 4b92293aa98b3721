package spm

import "mergepath/internal/core"

// MergeFunc is Merge under a caller-supplied strict weak ordering:
// less(x, y) reports whether x must sort before y. Stability matches
// Merge (ties to a, window boundaries preserved).
func MergeFunc[T any](a, b, out []T, cfg Config, less func(x, y T) bool) Stats {
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
	remA, remB := a, b
	done := 0
	total := len(out)
	for done < total {
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

		usedA, usedB := mergeWindowFunc(bufA, bufB, out[done:done+steps], p, less)
		bufA.drop(usedA)
		bufB.drop(usedB)
		done += steps
		stats.Windows++
	}
	return stats
}

func mergeWindowFunc[T any](bufA, bufB *ring[T], window []T, p int, less func(x, y T) bool) (usedA, usedB int) {
	steps := len(window)
	p = min(p, steps)
	core.Fork(p, func(i int) {
		lo, hi := i*steps/p, (i+1)*steps/p
		var sa, sb int
		if i > 0 {
			sa, sb = ringSearchDiagonalFunc(bufA, bufB, lo, less)
		}
		ea, eb := ringMergeStepsFunc(bufA, bufB, sa, sb, hi-lo, window[lo:hi], less)
		if i == p-1 {
			usedA, usedB = ea, eb
		}
	})
	return usedA, usedB
}

func ringSearchDiagonalFunc[T any](bufA, bufB *ring[T], k int, less func(x, y T) bool) (int, int) {
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
		// bufA[mid] <= bufB[k-mid-1]  <=>  !(bufB[k-mid-1] < bufA[mid])
		if !less(bufB.at(k-mid-1), bufA.at(mid)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, k - lo
}

func ringMergeStepsFunc[T any](bufA, bufB *ring[T], i, j, steps int, dst []T, less func(x, y T) bool) (int, int) {
	na, nb := bufA.len(), bufB.len()
	k := 0
	for k < steps && i < na && j < nb {
		av, bv := bufA.at(i), bufB.at(j)
		if less(bv, av) {
			dst[k] = bv
			j++
		} else {
			dst[k] = av
			i++
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

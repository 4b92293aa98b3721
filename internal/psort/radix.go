package psort

// radixMinRun is the run length from which phase 1 sorts an []int64 run
// with radixSortInt64 instead of the comparison merge sort. Below it the
// radix sort's fixed cost (clearing and prefix-summing its 2048-bucket
// histograms) eats its per-element saving. BenchmarkSeqSortKernel times
// both leaves around the crossover: on a 2-vCPU Xeon VM (Go 1.24) they
// are at parity near 1K elements, and at 2K the radix leaf is ~2.4x
// faster (~25 vs ~60 ns/elem).
const radixMinRun = 2048

const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
	radixPasses  = (64 + radixBits - 1) / radixBits
	radixSignBit = 1 << 63
)

// radixSortInt64 sorts s by LSD radix over six 11-bit digits of its
// sign-flipped key (flipping the sign bit makes unsigned order match
// int64 order), ping-ponging with scratch, which must be as long as s.
// One counting pass builds every digit's histogram; a digit equal on
// every element skips its scatter pass. Equal int64 keys are equal
// bytes, so the output is exactly that of the stable merge sort.
// s must be non-empty and at most math.MaxUint32 long, the range of the
// bucket counters.
func radixSortInt64(s, scratch []int64) {
	var counts [radixPasses][radixBuckets]uint32
	// One line per digit, written out: radixPasses is 6.
	for _, v := range s {
		k := uint64(v) ^ radixSignBit
		counts[0][k&radixMask]++
		counts[1][k>>(1*radixBits)&radixMask]++
		counts[2][k>>(2*radixBits)&radixMask]++
		counts[3][k>>(3*radixBits)&radixMask]++
		counts[4][k>>(4*radixBits)&radixMask]++
		counts[5][k>>(5*radixBits)&radixMask]++
	}
	n := uint32(len(s))
	src, dst := s, scratch[:len(s)]
	for pass := range radixPasses {
		c := &counts[pass]
		shift := uint(pass * radixBits)
		if c[(uint64(s[0])^radixSignBit)>>shift&radixMask] == n {
			continue // every element has the same digit: the pass is a copy
		}
		var sum uint32
		for d, cnt := range c {
			c[d] = sum
			sum += cnt
		}
		for _, v := range src {
			d := (uint64(v) ^ radixSignBit) >> shift & radixMask
			dst[c[d]] = v
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

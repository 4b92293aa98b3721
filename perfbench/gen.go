package main

import (
	"cmp"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"strconv"

	"mergepath/internal/kway"
	"mergepath/internal/verify"
)

// Input generation. Every byte the daemon sees is built here from the
// seed before any timed phase starts. Request kinds and sizes are
// stratified (the midpoints of evenly spaced quantiles, shuffled) instead
// of drawn independently, so every seed yields a pool with the same work
// profile: the seed moves values, order and how a request's elements are
// split between its inputs, not the amount of work, and runs on
// different seeds stay comparable.

const (
	frameType = "application/x-mergepath-frame"

	smallPool   = 600     // distinct rpc-small-json requests, replayed cyclically
	smallMax    = 1024    // per-input size range is [1, smallMax]
	smallTail   = 20      // every smallTail-th request has every input scaled ...
	smallScale  = 16      // ... by this factor
	smallMergeK = 4       // lists per small mergek
	largePool   = 15      // distinct rpc-large-binary requests, replayed cyclically
	largeMin    = 1 << 18 // output elements per large request: [largeMin, largeMax]
	largeMax    = 1 << 19
	largeMergeK = 16

	jobRecords = 1 << 21 // 2M records: 32 runs of jobMemory, 2 passes at fan-in 8
	jobMemory  = 1 << 16 // the external sort's M, passed as -job-memory

	valueStride = 1<<40 + 1 // spreads values over ~17 decimal digits
)

// request is one prepared call: the exact body sent and the exact body
// a correct daemon answers with.
type request struct {
	kind   string // merge, sort, mergek, setops or select
	path   string
	body   []byte
	binary bool   // body and answer are binary frames
	want   []byte // expected response body, byte for byte
	elems  int    // output elements: the verified work a 200 represents
	lists  [][]int64
	op     string // setops operation
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// strata returns n sizes in [lo, hi], the midpoints of n evenly spaced
// quantiles, in random order.
func strata(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	span := float64(hi - lo + 1)
	for i := range out {
		out[i] = lo + int((float64(i)+0.5)/float64(n)*span)
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// split returns k sizes in [1, hi] that sum to k*s: pairs s+d and s-d,
// with d drawn from the widest range that keeps both in bounds, and s
// itself last when k is odd.
func split(r *rand.Rand, s, k, hi int) []int {
	out := make([]int, k)
	for j := 0; j+1 < k; j += 2 {
		w := min(s-1, hi-s)
		d := r.IntN(2*w+1) - w
		out[j], out[j+1] = s+d, s-d
	}
	if k%2 == 1 {
		out[k-1] = s
	}
	return out
}

// deck returns a shuffled slice holding count[i] copies of names[i].
func deck(r *rand.Rand, names []string, counts []int) []string {
	var out []string
	for i, name := range names {
		for range counts[i] {
			out = append(out, name)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// values returns n values drawn from span distinct keys (so duplicates
// occur), optionally sorted.
func values(r *rand.Rand, n, span int, sorted bool) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = (r.Int64N(int64(span)) - int64(span)/2) * valueStride
	}
	if sorted {
		slices.Sort(v)
	}
	return v
}

// genSmall builds the rpc-small-json pool: 60% merge, 10% each of sort,
// mergek (k=4), setops and select, among both the ordinary and the tail
// requests, JSON both ways.
func genSmall(seed uint64) []*request {
	r := newRand(seed, 1)
	names := []string{"merge", "sort", "mergek", "setops", "select"}
	mix := func(n int) []int { return []int{n - 4*(n/10), n / 10, n / 10, n / 10, n / 10} }
	// Every smallTail-th request is a tail request, so no two of them
	// arrive close enough to queue behind each other; which kind each
	// slot holds is shuffled. Each kind's ordinary and tail requests draw
	// their sizes from strata of their own, and a request's inputs share
	// out its stratum's total, so every seed gives each kind the same
	// work in the body of the distribution and in its tail: a tail
	// quantile then reads the same requests' sizes on every seed.
	type class struct {
		kind string
		tail bool
	}
	nTail := smallPool / smallTail
	tailKinds, bodyKinds := deck(r, names, mix(nTail)), deck(r, names, mix(smallPool-nTail))
	kinds := make([]string, smallPool)
	tails := make([]bool, smallPool)
	count := map[class]int{}
	for i := range kinds {
		tails[i] = i%smallTail == 0
		if tails[i] {
			kinds[i], tailKinds = tailKinds[0], tailKinds[1:]
		} else {
			kinds[i], bodyKinds = bodyKinds[0], bodyKinds[1:]
		}
		count[class{kinds[i], tails[i]}]++
	}
	levels := map[class][]int{}
	for _, k := range names {
		for _, t := range []bool{false, true} {
			levels[class{k, t}] = strata(r, count[class{k, t}], 1, smallMax)
		}
	}
	arity := map[string]int{"merge": 2, "sort": 1, "mergek": smallMergeK, "setops": 2, "select": 2}
	next := func(kind string, tail bool) []int {
		c := class{kind, tail}
		sizes := split(r, levels[c][0], arity[kind], smallMax)
		levels[c] = levels[c][1:]
		if tail {
			for j := range sizes {
				sizes[j] *= smallScale
			}
		}
		return sizes
	}
	ops := []string{"union", "intersect", "diff"}
	pool := make([]*request, smallPool)
	for i, kind := range kinds {
		t := tails[i]
		switch kind {
		case "merge":
			n := next(kind, t)
			na, nb := n[0], n[1]
			a, b := values(r, na, 4*(na+nb), true), values(r, nb, 4*(na+nb), true)
			pool[i] = jsonRequest(kind, "", [][]int64{a, b}, verify.ReferenceMerge(a, b))
		case "sort":
			n := next(kind, t)[0]
			d := values(r, n, 4*n, false)
			want := slices.Clone(d)
			slices.SortStableFunc(want, cmp.Compare[int64])
			pool[i] = jsonRequest(kind, "", [][]int64{d}, want)
		case "mergek":
			lists := make([][]int64, smallMergeK)
			ns := next(kind, t)
			for j := range lists {
				n := ns[j]
				lists[j] = values(r, n, 4*smallMergeK*n, true)
			}
			pool[i] = jsonRequest(kind, "", lists, kway.HeapMerge(lists))
		case "setops":
			n := next(kind, t)
			na, nb := n[0], n[1]
			op := ops[i%len(ops)]
			span := 2 * max(na, nb)
			// Redraw values (never sizes) until the result is non-empty:
			// an empty result is encoded as null, not [], and the pool
			// should hold only requests that do work.
			for {
				a, b := values(r, na, span, true), values(r, nb, span, true)
				if want := refSetop(op, a, b); len(want) > 0 {
					pool[i] = jsonRequest(kind, op, [][]int64{a, b}, want)
					break
				}
			}
		case "select":
			n := next(kind, t)
			na, nb := n[0], n[1]
			a, b := values(r, na, 4*(na+nb), true), values(r, nb, 4*(na+nb), true)
			pool[i] = selectRequest(a, b, 1+r.IntN(na+nb))
		}
	}
	return pool
}

// genLarge builds the rpc-large-binary pool: a third each of merge, sort
// and mergek (k=16), binary frames both ways. Equal thirds keep the
// median inside the mergek latencies and p90 inside the sort latencies,
// instead of on the gap between two kinds, where a seed's small shifts
// in mix would move them far. Five sizes per kind put both quantiles on
// the middle of one size's latencies, not between two: the median on
// the third mergek size, p90 on the fourth sort size.
func genLarge(seed uint64, keepLists bool) []*request {
	r := newRand(seed, 2)
	// The kinds take turns in a fixed order, so a sort, the slowest kind,
	// never arrives right after another sort on one seed and apart on
	// the next.
	kinds := make([]string, largePool)
	for i := range kinds {
		kinds[i] = []string{"merge", "sort", "mergek"}[i%3]
	}
	// Each kind draws its sizes from its own strata: a sort costs more
	// per element than a merge, so which kind gets the large sizes must
	// not depend on the seed.
	sizes := map[string][]int{}
	for _, k := range []string{"merge", "sort", "mergek"} {
		c := 0
		for _, kk := range kinds {
			if kk == k {
				c++
			}
		}
		sizes[k] = strata(r, c, largeMin, largeMax)
	}
	pool := make([]*request, largePool)
	for i, kind := range kinds {
		n := sizes[kind][0]
		sizes[kind] = sizes[kind][1:]
		var lists [][]int64
		var want []int64
		switch kind {
		case "merge":
			na := n/4 + r.IntN(n/2+1)
			a, b := values(r, na, 2*n, true), values(r, n-na, 2*n, true)
			lists, want = [][]int64{a, b}, verify.ReferenceMerge(a, b)
		case "sort":
			d := values(r, n, 2*n, false)
			want = slices.Clone(d)
			slices.Sort(want)
			lists = [][]int64{d}
		case "mergek":
			cuts := make([]int, largeMergeK-1)
			for j := range cuts {
				cuts[j] = r.IntN(n + 1)
			}
			slices.Sort(cuts)
			prev := 0
			for _, c := range append(cuts, n) {
				lists = append(lists, values(r, c-prev, 2*n, true))
				prev = c
			}
			want = kway.HeapMerge(lists)
		}
		req := &request{kind: kind, path: "/v1/" + kind, binary: true,
			body: frame(lists...), want: frame(want), elems: len(want)}
		if keepLists {
			req.lists = lists
		}
		pool[i] = req
	}
	return pool
}

// genDataset builds the jobs-extsort upload: jobRecords little-endian
// int64 records, with the record count and order-sensitive checksum a
// correct sorted result must reproduce.
func genDataset(seed uint64) (data []byte, sum uint64) {
	r := newRand(seed, 3)
	vals := make([]int64, jobRecords)
	data = make([]byte, 8*jobRecords)
	for i := range vals {
		vals[i] = int64(r.Uint64())
		binary.LittleEndian.PutUint64(data[8*i:], uint64(vals[i]))
	}
	slices.Sort(vals)
	var c checksum
	for _, v := range vals {
		c.add(v)
	}
	return data, c.sum()
}

// checksum is FNV-1a over 64-bit words: order-sensitive, so a result
// with the right multiset in the wrong order fails.
type checksum struct {
	h   uint64
	set bool
}

func (c *checksum) add(v int64) {
	if !c.set {
		c.h, c.set = 14695981039346656037, true
	}
	c.h = (c.h ^ uint64(v)) * 1099511628211
}

func (c *checksum) sum() uint64 { return c.h }

// refSetop is the sequential multiset reference for /v1/setops: a value
// with x copies in a and y in b appears max(x,y), min(x,y) or
// max(0,x-y) times for union, intersect and diff.
func refSetop(op string, a, b []int64) []int64 {
	var out []int64
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int64
		if j >= len(b) || (i < len(a) && a[i] < b[j]) {
			v = a[i]
		} else {
			v = b[j]
		}
		x, y := 0, 0
		for ; i < len(a) && a[i] == v; i++ {
			x++
		}
		for ; j < len(b) && b[j] == v; j++ {
			y++
		}
		n := 0
		switch op {
		case "union":
			n = max(x, y)
		case "intersect":
			n = min(x, y)
		case "diff":
			n = max(0, x-y)
		}
		for ; n > 0; n-- {
			out = append(out, v)
		}
	}
	return out
}

// frame encodes lists as an int64 wire frame: "MPW1", version 1, type 1
// (int64), a uint16 list count, one uint64 length per list, then the
// little-endian payload. Written here rather than taken from
// internal/wire so the correctness check does not share the encoder it
// checks.
func frame(lists ...[]int64) []byte {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	b := make([]byte, 8+8*len(lists)+8*n)
	copy(b, "MPW1")
	b[4], b[5] = 1, 1
	binary.LittleEndian.PutUint16(b[6:], uint16(len(lists)))
	off := 8
	for _, l := range lists {
		binary.LittleEndian.PutUint64(b[off:], uint64(len(l)))
		off += 8
	}
	for _, l := range lists {
		for _, v := range l {
			binary.LittleEndian.PutUint64(b[off:], uint64(v))
			off += 8
		}
	}
	return b
}

func appendInts(dst []byte, v []int64) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, x, 10)
	}
	return append(dst, ']')
}

// jsonRequest builds a JSON request for merge, sort, mergek or setops
// (op names the setops operation) and its expected {"result":[...]}
// answer, which the daemon ends with a newline.
func jsonRequest(kind, op string, lists [][]int64, want []int64) *request {
	var body []byte
	switch kind {
	case "setops":
		body = appendInts([]byte(`{"op":"`+op+`","a":`), lists[0])
		body = appendInts(append(body, `,"b":`...), lists[1])
		body = append(body, '}')
	case "sort":
		body = appendInts([]byte(`{"data":`), lists[0])
		body = append(body, '}')
	case "mergek":
		body = []byte(`{"lists":[`)
		for i, l := range lists {
			if i > 0 {
				body = append(body, ',')
			}
			body = appendInts(body, l)
		}
		body = append(body, "]}"...)
	default:
		body = appendInts([]byte(`{"a":`), lists[0])
		body = appendInts(append(body, `,"b":`...), lists[1])
		body = append(body, '}')
	}
	w := appendInts([]byte(`{"result":`), want)
	return &request{kind: kind, path: "/v1/" + kind, body: body,
		want: append(w, "}\n"...), elems: len(want), lists: lists, op: op}
}

// selectRequest builds a /v1/select request for rank k (k >= 1) and
// its answer: the split of the first k elements of the stable (ties
// from a) reference merge, and the k-th element itself.
func selectRequest(a, b []int64, k int) *request {
	merged := verify.ReferenceMerge(a, b)
	i, j := 0, 0
	for range k {
		if i < len(a) && (j >= len(b) || a[i] <= b[j]) {
			i++
		} else {
			j++
		}
	}
	body := appendInts([]byte(`{"a":`), a)
	body = appendInts(append(body, `,"b":`...), b)
	body = strconv.AppendInt(append(body, `,"k":`...), int64(k), 10)
	w := strconv.AppendInt([]byte(`{"a_rank":`), int64(i), 10)
	w = strconv.AppendInt(append(w, `,"b_rank":`...), int64(j), 10)
	w = strconv.AppendInt(append(w, `,"kth":`...), merged[k-1], 10)
	return &request{kind: "select", path: "/v1/select", body: append(body, '}'),
		want: append(w, "}\n"...), elems: 1, lists: [][]int64{a, b}}
}

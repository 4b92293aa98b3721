package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"mergepath/internal/batch"
	"mergepath/internal/core"
	"mergepath/internal/kway"
	"mergepath/internal/psort"
	"mergepath/internal/setops"
	"mergepath/internal/verify"
	"mergepath/internal/wire"
)

// In-process layer timings for the traced run. Each call into a layer's
// public function is one span; a request's calls are children of one
// replay span that carries the request's ID. Every output is compared
// with a reference, as the daemon's answers are.

const (
	layerReps    = 3  // passes over a pool's requests per layer
	searchReps   = 21 // repeats of one search call (partition, co-rank), which takes microseconds
	bytesPerElem = 24 // a 2-way merge reads two 8-byte inputs and writes one 8-byte output per element
)

func nsPer(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / float64(max(n, 1))
}

// allocated returns the bytes allocated while fn ran.
func allocated(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// smallLayers times batch.Merge over pair sets the size of the daemon's
// mean coalesced round, and the set operations, on rpc-small-json's
// requests.
func smallLayers(r *run, pool []*request, srv serverCounts) {
	p := max(srv.workers, 1)
	group := 1
	if srv.batchRounds > 0 {
		group = max(1, int(math.Round(float64(srv.pairs)/float64(srv.batchRounds))))
	}
	var merges, sets []*request
	for _, rq := range pool {
		switch rq.kind {
		case "merge":
			merges = append(merges, rq)
		case "setops":
			sets = append(sets, rq)
		}
	}
	var batchNs, setNs []float64
	for rep := range layerReps {
		for i := 0; i+group <= len(merges); i += group {
			id := fmt.Sprintf("replay-batch-%d-%d", rep, i)
			root := r.tracer.begin(0, id, "replay.batch")
			pairs := make([]batch.Pair[int64], group)
			elems := 0
			for j := range pairs {
				a, b := merges[i+j].lists[0], merges[i+j].lists[1]
				pairs[j] = batch.Pair[int64]{A: a, B: b, Out: make([]int64, len(a)+len(b))}
				elems += len(a) + len(b)
			}
			d := r.tracer.call(root, id, "batch.merge", func() { batch.Merge(pairs, p) })
			r.tracer.finish(root)
			batchNs = append(batchNs, nsPer(d, elems))
			for _, pr := range pairs {
				if !slices.Equal(pr.Out, verify.ReferenceMerge(pr.A, pr.B)) {
					r.fail("batch.Merge output differs from the reference merge")
				}
			}
		}
		for i, rq := range sets {
			id := fmt.Sprintf("replay-setops-%d-%d", rep, i)
			root := r.tracer.begin(0, id, "replay.setops")
			a, b := rq.lists[0], rq.lists[1]
			fn := map[string]func(a, b []int64, p int) []int64{
				"union": setops.Union[int64], "intersect": setops.Intersect[int64], "diff": setops.Diff[int64]}[rq.op]
			var out []int64
			d := r.tracer.call(root, id, "setops."+rq.op, func() { out = fn(a, b, p) })
			r.tracer.finish(root)
			setNs = append(setNs, nsPer(d, len(a)+len(b)))
			if !slices.Equal(out, refSetop(rq.op, a, b)) {
				r.fail("setops.%s output differs from the sequential reference", rq.op)
			}
		}
	}
	r.setTiming("batch.merge_ns_per_elem", "ns/elem", batchNs)
	r.set("batch.pairs_per_call", "pairs", float64(group))
	r.setTiming("setops.ns_per_elem", "ns/elem", setNs)
}

// unframe decodes an int64 frame written by frame.
func unframe(b []byte) []int64 {
	n := int(binary.LittleEndian.Uint16(b[6:]))
	off := 8 + 8*n
	out := make([]int64, (len(b)-off)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[off+8*i:]))
	}
	return out
}

// largeLayers times wire decode and encode, the 2-way merge kernels,
// psort and the k-way merge on rpc-large-binary's requests.
func largeLayers(r *run, pool []*request, srv serverCounts) {
	p := max(srv.workers, 1)
	var decNs, encNs, partNs, parNs, seqNs, sortNs, sortSeqNs, kwNs, corankNs []float64
	var decAlloc, decElems, sortAlloc, sortElems uint64
	strategies := map[string]int{}
	imbalance := 0.0
	var enc bytes.Buffer
	for rep := range layerReps {
		for i, rq := range pool {
			id := fmt.Sprintf("replay-%s-%d-%d", rq.kind, rep, i)
			root := r.tracer.begin(0, id, "replay."+rq.kind)
			want := unframe(rq.want)

			var f *wire.Frame
			var err error
			var d time.Duration
			alloc := allocated(func() {
				d = r.tracer.call(root, id, "wire.decode", func() { f, err = wire.Decode(bytes.NewReader(rq.body), wire.Limits{}) })
			})
			if err != nil {
				r.fail("wire.Decode: %v", err)
				r.tracer.finish(root)
				continue
			}
			if !slices.EqualFunc(f.Ints, rq.lists, slices.Equal[[]int64]) {
				r.fail("wire.Decode lists differ from the generated input")
			}
			decNs = append(decNs, nsPer(d, f.Elements()))
			if rep > 0 { // the first pass fills the decoder's arena pools
				decAlloc += alloc
				decElems += uint64(f.Elements())
			}
			f.Release()

			out := make([]int64, len(want))
			switch rq.kind {
			case "merge":
				a, b := rq.lists[0], rq.lists[1]
				for range searchReps {
					d := r.tracer.call(root, id, "core.partition", func() { core.Partition(a, b, p) })
					partNs = append(partNs, float64(d.Nanoseconds()))
				}
				d := r.tracer.call(root, id, "core.parallel_merge", func() { core.ParallelMerge(a, b, out, p) })
				parNs = append(parNs, nsPer(d, len(out)))
				if !slices.Equal(out, want) {
					r.fail("core.ParallelMerge output differs from the reference merge")
				}
				seq := make([]int64, len(want))
				d = r.tracer.call(root, id, "core.merge", func() { core.Merge(a, b, seq) })
				seqNs = append(seqNs, nsPer(d, len(seq)))
				if !slices.Equal(seq, want) {
					r.fail("core.Merge output differs from the reference merge")
				}
			case "sort":
				copy(out, rq.lists[0])
				var d time.Duration
				alloc := allocated(func() {
					d = r.tracer.call(root, id, "psort.sort", func() { _, _ = psort.SortCtxStats(context.Background(), out, p) })
				})
				sortNs = append(sortNs, nsPer(d, len(out)))
				sortAlloc += alloc
				sortElems += uint64(len(out))
				if !slices.Equal(out, want) {
					r.fail("psort.SortCtxStats output differs from the reference sort")
				}
				seq := slices.Clone(rq.lists[0])
				d = r.tracer.call(root, id, "psort.sort_seq", func() { psort.Sort(seq, 1) })
				sortSeqNs = append(sortSeqNs, nsPer(d, len(seq)))
				if !slices.Equal(seq, want) {
					r.fail("psort.Sort(p=1) output differs from the reference sort")
				}
			case "mergek":
				var res []int64
				var st kway.Stats
				d := r.tracer.call(root, id, "kway.merge", func() {
					res, st = kway.MergeIntoStats(out, rq.lists, p, kway.StrategyAuto)
				})
				kwNs = append(kwNs, nsPer(d, len(res)))
				strategies[st.Strategy.String()]++
				imbalance = max(imbalance, st.Imbalance)
				if !slices.Equal(res, want) {
					r.fail("kway.MergeIntoStats output differs from kway.HeapMerge")
				}
				for range searchReps {
					d := r.tracer.call(root, id, "kway.corank", func() { kway.CoRank(rq.lists, len(want)/2) })
					corankNs = append(corankNs, float64(d.Nanoseconds()))
				}
			}

			enc.Reset()
			d = r.tracer.call(root, id, "wire.encode", func() { err = wire.EncodeInt64(&enc, want) })
			encNs = append(encNs, nsPer(d, len(want)))
			if err != nil || !bytes.Equal(enc.Bytes(), rq.want) {
				r.fail("wire.EncodeInt64 bytes differ from the reference frame")
			}
			r.tracer.finish(root)
		}
	}
	r.setTiming("wire.decode_ns_per_elem", "ns/elem", decNs)
	r.setTiming("wire.encode_ns_per_elem", "ns/elem", encNs)
	r.set("wire.alloc_bytes_per_elem", "B/elem", float64(decAlloc)/float64(max(decElems, 1)))
	r.setTiming("core.partition_ns", "ns", partNs)
	r.setTiming("core.merge_ns_per_elem", "ns/elem", parNs)
	r.setTiming("core.merge_seq_ns_per_elem", "ns/elem", seqNs)
	if len(parNs) > 0 {
		r.set("core.speedup", "ratio", median(seqNs)/median(parNs))
		r.set("core.bytes_per_s_computed", "B/s", bytesPerElem/(median(parNs)*1e-9))
		r.note("core.speedup = median core.Merge ns/elem %.3f (p=1) / median core.ParallelMerge ns/elem %.3f (p=%d); "+
			"core.bytes_per_s_computed assumes %d B moved per output element, it is not a measured bandwidth",
			median(seqNs), median(parNs), p, bytesPerElem)
	}
	r.setSort(sortNs, sortSeqNs, sortAlloc, sortElems)
	r.setKWay(kwNs, corankNs, strategies, imbalance)
}

func (r *run) setSort(par, seq []float64, alloc, elems uint64) {
	r.setTiming("psort.sort_ns_per_elem", "ns/elem", par)
	r.setTiming("psort.sort_seq_ns_per_elem", "ns/elem", seq)
	r.set("psort.alloc_bytes_per_elem", "B/elem", float64(alloc)/float64(max(elems, 1)))
}

func (r *run) setKWay(ns, corank []float64, strategies map[string]int, imbalance float64) {
	r.setTiming("kway.merge_ns_per_elem", "ns/elem", ns)
	r.setTiming("kway.corank_ns", "ns", corank)
	for _, s := range []string{"heap", "tree", "corank"} {
		r.set("kway.strategy_"+s, "count", float64(strategies[s]))
	}
	r.set("kway.imbalance", "ratio", imbalance)
}

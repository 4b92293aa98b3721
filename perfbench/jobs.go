package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"mergepath/internal/extsort"
	"mergepath/internal/kway"
	"mergepath/internal/psort"
)

// jobs-extsort: one job at a time, each cycle uploading the seeded
// dataset, sorting it out of core with M = jobMemory records, polling
// until done, streaming and checking the result, and deleting the
// dataset. The daemon has no endpoint that deletes a finished job; its
// record and result expire by the daemon's job TTL, and the run's spill
// directory is removed when the run ends.

const (
	jobsTail       = 0.75 // tail_ms is p75 on jobs-extsort
	jobsMinRuns    = 40   // cycles per run at least, so p75 has ten samples beyond it
	jobsProbeEvery = 4    // cycles between set-up launches
	jobsLimitMS    = 1200 // cycle-time limit on p75 for slo_rps
	jobPoll        = 2 * time.Millisecond

	jobsTracedPlain = 3 // untraced cycles of the traced run
	jobsTraced      = 6 // traced cycles of the traced run
)

type jobsWorkload struct{}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
	Spans []struct {
		Name    string  `json:"name"`
		StartMS float64 `json:"start_ms"`
		DurMS   float64 `json:"dur_ms"`
	} `json:"spans"`
	Stats *extsort.Stats `json:"stats"`
}

func (v jobView) span(name string) (float64, bool) {
	for _, s := range v.Spans {
		if s.Name == name {
			return s.DurMS, true
		}
	}
	return 0, false
}

// cycle is one upload-sort-stream-delete round trip.
type cycle struct {
	start, end     time.Time
	upload, result time.Duration
	steal          float64 // hypervisor steal share during the cycle
	view           jobView
	err            error // a failed or refused step
	wrong          bool  // the result stream differs from the reference
}

func (c *cycle) ms() float64 { return ms(c.end.Sub(c.start)) }

// jobCycle runs one cycle. tr and onDone are for the traced run: spans
// for each step, and a hook called with the job ID before the dataset
// is deleted.
func (c *client) jobCycle(data []byte, sum uint64, tr *tracer, req string, onDone func(id string)) (cy cycle) {
	cy.start = time.Now()
	before := readCPU()
	defer func() { cy.end, cy.steal = time.Now(), stealShare(before, readCPU()) }()
	root := tr.begin(0, req, "client.cycle")
	defer tr.finish(root)

	var ds struct {
		ID string `json:"id"`
	}
	t := time.Now()
	if cy.err = c.call(http.MethodPost, "/v1/datasets", "application/octet-stream", data, http.StatusCreated, &ds); cy.err != nil {
		return
	}
	cy.upload = time.Since(t)
	tr.add(root, req, "jobs.upload", t, t.Add(cy.upload))

	var v jobView
	submitted := time.Now()
	body, _ := json.Marshal(map[string]string{"type": "sortfile", "dataset": ds.ID})
	if cy.err = c.call(http.MethodPost, "/v1/jobs", "application/json", body, http.StatusAccepted, &v); cy.err != nil {
		return
	}
	tr.add(root, req, "jobs.submit", submitted, time.Now())
	t = time.Now()
	for v.State != "done" {
		if v.State == "failed" || v.State == "canceled" || v.State == "expired" {
			cy.err = fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
			return
		}
		time.Sleep(jobPoll)
		if cy.err = c.call(http.MethodGet, "/v1/jobs/"+v.ID, "", nil, http.StatusOK, &v); cy.err != nil {
			return
		}
	}
	cy.view = v
	poll := tr.add(root, req, "jobs.poll", t, time.Now())
	for _, s := range v.Spans {
		at := submitted.Add(time.Duration(s.StartMS * float64(time.Millisecond)))
		tr.add(poll, req, "jobs."+s.Name, at, at.Add(time.Duration(s.DurMS*float64(time.Millisecond))))
	}

	t = time.Now()
	n, got, err := c.stream("/v1/jobs/" + v.ID + "/result")
	cy.result = time.Since(t)
	tr.add(root, req, "jobs.result", t, t.Add(cy.result))
	if err != nil {
		cy.err = err
		return
	}
	cy.wrong = n != jobRecords || got != sum
	if onDone != nil {
		onDone(v.ID)
	}
	t = time.Now()
	cy.err = c.call(http.MethodDelete, "/v1/datasets/"+ds.ID, "", nil, http.StatusOK, nil)
	tr.add(root, req, "jobs.delete_dataset", t, time.Now())
	return
}

// call sends one request and decodes a JSON answer into out (if
// non-nil), failing on any status but want.
func (c *client) call(method, path, ctype string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

// stream reads a result stream and returns its record count and
// checksum.
func (c *client) stream(path string) (int, uint64, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, 0, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	var ck checksum
	n := 0
	buf := make([]byte, 1<<16)
	var rest int
	for {
		k, err := resp.Body.Read(buf[rest:])
		k += rest
		whole := k / 8 * 8
		for i := 0; i < whole; i += 8 {
			ck.add(int64(binary.LittleEndian.Uint64(buf[i:])))
			n++
		}
		rest = copy(buf, buf[whole:k])
		if err == io.EOF {
			if rest != 0 {
				return n, ck.sum(), fmt.Errorf("GET %s: %d trailing bytes", path, rest)
			}
			return n, ck.sum(), nil
		}
		if err != nil {
			return n, ck.sum(), fmt.Errorf("GET %s: %w", path, err)
		}
	}
}

func (jobsWorkload) run(r *run) error {
	data, sum := genDataset(r.seed)
	extra := []string{"-job-memory", strconv.Itoa(jobMemory)}
	if r.trace {
		return jobsTracedRun(r, data, sum, extra)
	}
	clock := &setupClock{bin: r.bin, work: r.work, extra: extra}
	d, err := clock.start(setups)
	if err != nil {
		return err
	}
	defer d.stop()
	if err := r.noteDaemon(d); err != nil {
		return err
	}
	c := newClient(d.base, 1)
	defer c.close()

	if r.checkCycles("warm-up", []cycle{c.jobCycle(data, sum, nil, "", nil)}) > 0 {
		return errors.New("warm-up cycle failed")
	}
	// The metrics come from the jobsMinRuns cycles during which the
	// hypervisor stole the least CPU time; every cycle is checked and
	// counted in attempted and failed. While one of those cycles is not
	// quiet, the run goes on for up to another 0.2 of its seconds.
	var cycles []cycle
	leastStolenCycles := func() []cycle {
		used := slices.Clone(cycles)
		slices.SortStableFunc(used, func(a, b cycle) int { return cmp.Compare(a.steal, b.steal) })
		return used[:min(jobsMinRuns, len(used))]
	}
	start := time.Now()
	deadline, limit := start.Add(seconds(r.seconds)), start.Add(seconds(1.2*r.seconds))
	for len(cycles) < jobsMinRuns || time.Now().Before(deadline) ||
		(leastStolenCycles()[jobsMinRuns-1].steal > quietSteal && time.Now().Before(limit)) {
		cycles = append(cycles, c.jobCycle(data, sum, nil, "", nil))
		if len(cycles)%jobsProbeEvery == 0 {
			if err := clock.probe(); err != nil {
				return err
			}
		}
	}
	failed := r.checkCycles("cycles", cycles)
	used := leastStolenCycles()
	var lat []float64
	for _, cy := range used {
		if cy.err == nil && !cy.wrong {
			lat = append(lat, cy.ms())
		} else {
			lat = append(lat, math.Inf(1))
		}
	}
	tail, err := tailQuantile(lat, jobsTail)
	if err != nil {
		return err
	}
	p50 := median(lat)
	slo := 0.0
	if failed == 0 && tail <= jobsLimitMS {
		slo = 1000 / p50
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return err
	}
	steals := make([]float64, len(cycles))
	for i, cy := range cycles {
		steals[i] = 100 * cy.steal
	}
	r.res.Attempted, r.res.Failed = len(cycles), failed
	r.set("setup_s", "s", clock.median())
	r.set("throughput_eps", "elements/s", jobRecords/(p50/1000))
	r.set("p50_ms", "ms", p50)
	r.set("tail_ms", "ms", tail)
	r.set("slo_rps", "req/s", slo)
	r.set("success_ratio", "ratio", float64(len(cycles)-failed)/float64(len(cycles)))
	r.set("peak_rss_mb", "MiB", rss)
	r.note("%d cycles of %d records in %.3f s; metrics use the %d least stolen (steal %.1f%%..%.1f%% of all cycles)",
		len(cycles), jobRecords, time.Since(start).Seconds(), jobsMinRuns, quantile(steals, 0), quantile(steals, 1))
	r.note("throughput_eps is records over the median cycle time; tail_ms is p75 of cycle time; "+
		"slo_rps is cycles/s at the median cycle time while p75 <= %d ms with no failure", jobsLimitMS)
	r.note("error_ratio %.6f (%d failed of %d attempted)", float64(failed)/float64(len(cycles)), failed, len(cycles))
	return nil
}

// checkCycles fails the run on a wrong result or a broken memory bound
// and returns how many cycles failed.
func (r *run) checkCycles(name string, cycles []cycle) int {
	failed := 0
	for _, cy := range cycles {
		switch {
		case cy.wrong:
			failed++
			r.fail("%s: result stream differs from the sorted dataset (count or checksum)", name)
		case cy.err != nil:
			failed++
			r.note("%s: cycle failed: %v", name, cy.err)
		case cy.view.Stats == nil:
			failed++
			r.fail("%s: finished job reports no stats", name)
		case cy.view.Stats.PeakBufferRecords > jobMemory:
			r.fail("%s: peak buffer %d records exceeds M = %d", name, cy.view.Stats.PeakBufferRecords, jobMemory)
		}
	}
	return failed
}

// jobsTracedRun runs a fixed count of cycles untraced, then a fixed
// count traced, reads the job layer's spans and the external sort's
// counts from the traced ones, verifies the sealed result's checksums,
// and times psort and the k-way merge in process on the dataset cut
// into the same runs the external sort forms.
func jobsTracedRun(r *run, data []byte, sum uint64, extra []string) error {
	for _, m := range perLayer {
		r.set(m.Name, m.Unit, 0)
	}
	d, _, err := startDaemon(r.bin, r.work, extra)
	if err != nil {
		return err
	}
	defer d.stop()
	if err := r.noteDaemon(d); err != nil {
		return err
	}
	c := newClient(d.base, 1)
	defer c.close()

	// The first cycle warms the daemon up; it is checked, not timed.
	var plain, traced []cycle
	for range 1 + jobsTracedPlain {
		plain = append(plain, c.jobCycle(data, sum, nil, "", nil))
	}
	warm := plain[0]
	plain = plain[1:]
	m0, err := d.metrics()
	if err != nil {
		return err
	}
	var crcNs []float64
	for i := range jobsTraced {
		req := fmt.Sprintf("cycle-%d", i)
		traced = append(traced, c.jobCycle(data, sum, r.tracer, req, func(id string) {
			path := filepath.Join(d.spill, id+".result")
			for range layerReps {
				var err error
				dur := r.tracer.call(0, req, "extsort.crc_verify", func() { err = extsort.VerifyChecksumFile(path) })
				if err != nil {
					r.fail("extsort.VerifyChecksumFile on the sealed result: %v", err)
				}
				crcNs = append(crcNs, nsPer(dur, len(data)))
			}
		}))
	}
	m1, err := d.metrics()
	if err != nil {
		return err
	}
	failed := r.checkCycles("warm-up", []cycle{warm}) + r.checkCycles("untraced", plain) + r.checkCycles("traced", traced)
	d.stop()
	r.res.Attempted, r.res.Failed = 1+len(plain)+len(traced), failed
	if failed > 0 {
		return fmt.Errorf("%d of %d job cycles failed", failed, r.res.Attempted)
	}

	var upload, result, pl, tl []float64
	spans := map[string][]float64{}
	for _, cy := range traced {
		upload = append(upload, float64(len(data))/1e6/cy.upload.Seconds())
		result = append(result, float64(len(data))/1e6/cy.result.Seconds())
		tl = append(tl, cy.ms())
		for _, name := range []string{"queue_wait", "copy_in", "run_formation", "merge"} {
			if v, ok := cy.view.span(name); ok {
				spans[name] = append(spans[name], v)
			}
		}
	}
	for _, cy := range plain {
		pl = append(pl, cy.ms())
	}
	r.set("jobs.upload_mb_per_s", "MB/s", median(upload))
	r.set("jobs.result_mb_per_s", "MB/s", median(result))
	for name, v := range spans {
		r.setTiming("jobs."+name+"_ms", "ms", v)
	}
	dj := func(m metricsDoc) (uint64, uint64) {
		if m.Jobs == nil {
			return 0, 0
		}
		return m.Jobs.Durability.JournalAppends, m.Jobs.Durability.Fsyncs
	}
	a0, f0 := dj(m0)
	a1, f1 := dj(m1)
	r.set("jobs.journal_appends", "count", float64(a1-a0)/jobsTraced)
	r.set("jobs.fsyncs", "count", float64(f1-f0)/jobsTraced)

	st := traced[0].view.Stats
	for _, cy := range traced[1:] {
		if *cy.view.Stats != *st {
			r.fail("external sort stats differ between cycles on the same dataset: %+v vs %+v", *cy.view.Stats, *st)
		}
	}
	r.set("extsort.runs", "count", float64(st.Runs))
	r.set("extsort.merge_passes", "count", float64(st.MergePasses))
	r.set("extsort.block_reads", "count", float64(st.BlockReads))
	r.set("extsort.block_writes", "count", float64(st.BlockWrites))
	r.set("extsort.write_amplification", "ratio",
		float64(st.BlockWrites)*extsort.DefaultFileBlockRecords*extsort.RecordBytes/float64(len(data)))
	r.set("extsort.peak_buffer_records", "records", float64(st.PeakBufferRecords))
	r.setTiming("extsort.crc_verify_ns_per_byte", "ns/B", crcNs)
	r.note("job stats: %+v (M = %d records, peak must stay <= M)", *st, jobMemory)
	r.note("jobs.journal_appends and jobs.fsyncs are per cycle, over %d traced cycles", jobsTraced)

	r.set("trace.overhead_p50_ms", "ms", median(tl)-median(pl))
	r.set("trace.overhead_tail_ms", "ms", quantile(tl, 1)-quantile(pl, 1))
	r.note("jobs.* tails are maxima: %d traced cycles give fewer than ten samples beyond any percentile; "+
		"trace.overhead_tail_ms compares maxima of %d traced and %d untraced cycles", jobsTraced, jobsTraced, jobsTracedPlain)

	runLayers(r, data, max(r.workers, 1))
	r.noteLayers()
	return nil
}

// runLayers cuts the dataset into runs of jobMemory records, times
// psort on each run (run formation), then the k-way merge of each group
// of extsort.DefaultFanIn sorted runs (one merge-tree node).
func runLayers(r *run, data []byte, p int) {
	vals := make([]int64, len(data)/8)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	var sortNs, sortSeqNs, kwNs, corankNs []float64
	var sortAlloc, sortElems uint64
	var runs [][]int64
	for i := 0; i < len(vals); i += jobMemory {
		id := fmt.Sprintf("replay-run-%d", i/jobMemory)
		root := r.tracer.begin(0, id, "replay.run_formation")
		run := slices.Clone(vals[i:min(i+jobMemory, len(vals))])
		want := slices.Clone(run)
		slices.Sort(want)
		var d time.Duration
		sortAlloc += allocated(func() {
			d = r.tracer.call(root, id, "psort.sort", func() { _, _ = psort.SortCtxStats(context.Background(), run, p) })
		})
		sortElems += uint64(len(run))
		sortNs = append(sortNs, nsPer(d, len(run)))
		seq := slices.Clone(vals[i:min(i+jobMemory, len(vals))])
		d = r.tracer.call(root, id, "psort.sort_seq", func() { psort.Sort(seq, 1) })
		sortSeqNs = append(sortSeqNs, nsPer(d, len(seq)))
		r.tracer.finish(root)
		if !slices.Equal(run, want) || !slices.Equal(seq, want) {
			r.fail("psort output differs from the reference sort")
		}
		runs = append(runs, run)
	}
	strategies := map[string]int{}
	imbalance := 0.0
	for g := 0; g < len(runs); g += extsort.DefaultFanIn {
		id := fmt.Sprintf("replay-merge-%d", g/extsort.DefaultFanIn)
		root := r.tracer.begin(0, id, "replay.merge_node")
		group := runs[g:min(g+extsort.DefaultFanIn, len(runs))]
		total := 0
		for _, l := range group {
			total += len(l)
		}
		out := make([]int64, total)
		var res []int64
		var st kway.Stats
		d := r.tracer.call(root, id, "kway.merge", func() { res, st = kway.MergeIntoStats(out, group, p, kway.StrategyAuto) })
		kwNs = append(kwNs, nsPer(d, total))
		strategies[st.Strategy.String()]++
		imbalance = max(imbalance, st.Imbalance)
		for range searchReps {
			d := r.tracer.call(root, id, "kway.corank", func() { kway.CoRank(group, total/2) })
			corankNs = append(corankNs, float64(d.Nanoseconds()))
		}
		r.tracer.finish(root)
		if !slices.Equal(res, kway.HeapMerge(group)) {
			r.fail("kway.MergeIntoStats output differs from kway.HeapMerge")
		}
	}
	r.setSort(sortNs, sortSeqNs, sortAlloc, sortElems)
	r.setKWay(kwNs, corankNs, strategies, imbalance)
}

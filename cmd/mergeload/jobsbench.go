package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"time"

	"mergepath/internal/harness"
	"mergepath/internal/jobs"
	"mergepath/internal/server"
	"mergepath/internal/stats"
)

// The -jobs mode: instead of hammering the request/response endpoints,
// drive the asynchronous out-of-core path end to end — upload one
// dataset, run -jobs-count sortfile jobs against it, poll each with a
// monotone-progress check, stream and verify every result byte against a
// local in-RAM sort, and report where job time went (queue wait, copy-in,
// run formation, merge passes) from the per-job spans the daemon records.

// jobsBenchDoc is the jobs-mode section of BENCH_server.json.
type jobsBenchDoc struct {
	// Records is the dataset size in 8-byte records.
	Records int `json:"records"`
	// MemoryRecords is the server-reported per-job memory budget.
	MemoryRecords int `json:"memory_records,omitempty"`
	// Count is the number of sortfile jobs run.
	Count int `json:"count"`
	// UploadMS is the dataset upload wall time.
	UploadMS float64 `json:"upload_ms"`
	// StreamMS is the mean result-streaming wall time.
	StreamMS float64 `json:"stream_ms"`
	// Phases aggregates the per-job span timings by phase name
	// (queue_wait, copy_in, run_formation, merge, total).
	Phases map[string]stats.HistogramSnapshot `json:"phases"`
	// MergePasses is the engine's merge-pass count (same for every job:
	// same data, same budget).
	MergePasses int `json:"merge_passes"`
	// FanIn is the engine's effective merge fan-in.
	FanIn int `json:"fan_in"`
	// BlockIO is reads+writes per job from the engine's stats.
	BlockIO uint64 `json:"block_io"`
	// PeakBufferRecords is the engine's peak in-memory allocation; must
	// stay at or under MemoryRecords.
	PeakBufferRecords int `json:"peak_buffer_records"`
	// Verified is true when every streamed result was byte-identical to
	// the local in-RAM sort (the run fails otherwise, so a written doc
	// always says true; the field keeps the artifact self-describing).
	Verified bool `json:"verified"`
}

// runJobsBench drives the full dataset -> job -> result lifecycle and
// aggregates phase timings. Any divergence — progress regression, a job
// not reaching done, wrong result bytes — is fatal.
func runJobsBench(base string, client *http.Client, o options) *jobsBenchDoc {
	rng := rand.New(rand.NewSource(o.seed))
	vals := make([]int64, o.jobsRecords)
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63()
	}
	payload := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(payload[i*8:], uint64(v))
	}
	want := slices.Clone(vals)
	slices.Sort(want)
	wantBytes := make([]byte, len(payload))
	for i, v := range want {
		binary.LittleEndian.PutUint64(wantBytes[i*8:], uint64(v))
	}

	doc := &jobsBenchDoc{Records: o.jobsRecords, Count: o.jobsCount,
		Phases: map[string]stats.HistogramSnapshot{}}
	phases := map[string]*stats.Histogram{}

	t0 := time.Now()
	resp, err := client.Post(base+"/v1/datasets", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		fatalf("jobs: upload: %v", err)
	}
	var ds jobs.Dataset
	err = json.NewDecoder(resp.Body).Decode(&ds)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		fatalf("jobs: upload status %d err %v", resp.StatusCode, err)
	}
	doc.UploadMS = float64(time.Since(t0)) / float64(time.Millisecond)
	fmt.Printf("jobs: uploaded %d records (%.1f MB) in %.0fms as %s\n",
		ds.Records, float64(ds.Bytes)/1e6, doc.UploadMS, ds.ID)

	var streamTotal time.Duration
	for i := 0; i < o.jobsCount; i++ {
		v := runOneJob(base, client, ds.ID, wantBytes, phases)
		if v.Stats != nil {
			doc.MergePasses = v.Stats.MergePasses
			doc.FanIn = v.Stats.FanIn
			doc.BlockIO = v.Stats.BlockReads + v.Stats.BlockWrites
			doc.PeakBufferRecords = v.Stats.PeakBufferRecords
		}
		streamTotal += v.streamed
	}
	doc.StreamMS = float64(streamTotal) / float64(time.Millisecond) / float64(o.jobsCount)
	doc.Verified = true

	if snap := fetchServerSnapshot(base, client); snap != nil && snap.Jobs != nil {
		doc.MemoryRecords = snap.Jobs.MemoryRecords
	}

	t := harness.NewTable(
		fmt.Sprintf("jobs mode: %d sortfile jobs over %d records (budget %d, %d merge passes, fan-in %d)",
			o.jobsCount, o.jobsRecords, doc.MemoryRecords, doc.MergePasses, doc.FanIn),
		"phase", "count", "p50", "p95", "max")
	for _, name := range []string{"queue_wait", "copy_in", "run_formation", "merge", "total"} {
		h, ok := phases[name]
		if !ok {
			continue
		}
		s := h.Snapshot()
		t.Addf(name, s.Count, fmtDur(s.P50), fmtDur(s.P95), fmtDur(s.Max))
		doc.Phases[name] = s
	}
	fmt.Println(t)
	fmt.Printf("jobs: all %d results verified byte-identical to the in-RAM sort; block I/O %d, peak buffer %d records\n",
		o.jobsCount, doc.BlockIO, doc.PeakBufferRecords)
	return doc
}

// jobOutcome is one finished job's view plus client-side timings.
type jobOutcome struct {
	jobs.View
	streamed time.Duration
}

// runOneJob submits, polls (asserting monotone progress), streams and
// verifies one sortfile job, folding its spans into the phase histograms.
func runOneJob(base string, client *http.Client, dsID string, wantBytes []byte, phases map[string]*stats.Histogram) jobOutcome {
	body, _ := json.Marshal(server.JobRequest{Type: "sortfile", Dataset: dsID})
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fatalf("jobs: submit: %v", err)
	}
	var v jobs.View
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		fatalf("jobs: submit status %d err %v (%s)", resp.StatusCode, err, v.Error)
	}

	last := -1.0
	deadline := time.Now().Add(5 * time.Minute)
	for v.State == jobs.Pending || v.State == jobs.Running {
		if time.Now().After(deadline) {
			fatalf("jobs: %s stuck in %s at %.2f", v.ID, v.State, v.Progress)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := client.Get(base + "/v1/jobs/" + v.ID)
		if err != nil {
			fatalf("jobs: poll: %v", err)
		}
		var got jobs.View
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			fatalf("jobs: poll decode: %v", err)
		}
		if got.Progress < last {
			fatalf("jobs: progress regressed %.4f -> %.4f", last, got.Progress)
		}
		last = got.Progress
		v = got
	}
	if v.State != jobs.Done {
		fatalf("jobs: %s ended %s: %s", v.ID, v.State, v.Error)
	}
	for _, sp := range v.Spans {
		h, ok := phases[sp.Name]
		if !ok {
			h = &stats.Histogram{}
			phases[sp.Name] = h
		}
		h.Observe(time.Duration(sp.DurMS * float64(time.Millisecond)))
	}

	t0 := time.Now()
	resp, err = client.Get(base + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		fatalf("jobs: result: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		fatalf("jobs: result status %d err %v", resp.StatusCode, err)
	}
	if !bytes.Equal(raw, wantBytes) {
		fatalf("jobs: %s result differs from the in-RAM sort", v.ID)
	}
	return jobOutcome{View: v, streamed: time.Since(t0)}
}

// writeJobsJSON writes the jobs-mode benchmark artifact: the shared
// benchDoc envelope with the Jobs section populated and the request-path
// sections left zero.
func writeJobsJSON(o options, jb *jobsBenchDoc, base string, client *http.Client, target string) {
	var doc benchDoc
	doc.Config.Target = target
	doc.Config.Mode = "jobs"
	doc.Config.Endpoint = "jobs"
	doc.Config.Conc = 1
	doc.Config.Size = o.jobsRecords
	doc.Config.Dist = "random"
	doc.Config.Duration = "n/a"
	doc.Jobs = jb
	if resp, err := client.Get(base + "/metrics"); err == nil {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		doc.ServerMetrics = raw
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("marshal results: %v", err)
	}
	if err := os.WriteFile(o.jsonPath, append(buf, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", o.jsonPath, err)
	}
	fmt.Printf("wrote %s\n", o.jsonPath)
}

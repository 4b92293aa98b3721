package server

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"mergepath/internal/overload"
	"mergepath/internal/promtext"
)

// Prometheus text exposition format 0.0.4 line grammar, as accepted by
// real scrapers: sample lines and # HELP / # TYPE comments.
var (
	promSampleRe = regexp.MustCompile(
		`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|NaN|[+-]Inf)$`)
	promHelpRe = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	promTypeRe = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
)

// scrapeProm fetches /metrics/prom, validates every line against the
// exposition grammar (including HELP/TYPE-before-first-sample ordering),
// and returns the samples keyed by "name{labels}".
func scrapeProm(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics/prom: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promtext.ContentType {
		t.Fatalf("content type %q, want %q", ct, promtext.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.HasSuffix(text, "\n") {
		t.Error("exposition must end with a newline")
	}

	samples := make(map[string]float64)
	typed := make(map[string]string) // metric name -> declared type
	helped := make(map[string]bool)
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := promHelpRe.FindStringSubmatch(line); m != nil {
				if helped[m[1]] {
					t.Errorf("line %d: duplicate HELP for %s", i+1, m[1])
				}
				helped[m[1]] = true
				continue
			}
			if m := promTypeRe.FindStringSubmatch(line); m != nil {
				if _, dup := typed[m[1]]; dup {
					t.Errorf("line %d: duplicate TYPE for %s", i+1, m[1])
				}
				typed[m[1]] = m[2]
				continue
			}
			t.Errorf("line %d: malformed comment: %q", i+1, line)
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: not a valid sample: %q", i+1, line)
			continue
		}
		name, labels, valText := m[1], m[2], m[4]
		// Summary _sum/_count series hang off the summary's base name.
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if _, ok := typed[base]; !ok {
			base = name
		}
		if !helped[base] || typed[base] == "" {
			t.Errorf("line %d: sample %s before its HELP/TYPE header", i+1, name)
		}
		if !strings.HasPrefix(name, "mergepathd_") {
			t.Errorf("line %d: metric %s missing mergepathd_ namespace", i+1, name)
		}
		v, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			t.Errorf("line %d: bad value %q: %v", i+1, valText, err)
			continue
		}
		key := name + labels
		if _, dup := samples[key]; dup {
			t.Errorf("line %d: duplicate series %s", i+1, key)
		}
		samples[key] = v
	}
	return samples
}

// sample fetches one series or fails the test.
func sample(t *testing.T, samples map[string]float64, key string) float64 {
	t.Helper()
	v, ok := samples[key]
	if !ok {
		t.Fatalf("series %s missing from exposition", key)
	}
	return v
}

func TestMetricsPromFormatAndAgreement(t *testing.T) {
	// Exercise both execution paths plus an error before scraping:
	// coalesced small merges, an uncoalesced whole-pool merge, a sort,
	// and a 400. The generous sojourn target keeps a scheduler hiccup on
	// a loaded CI machine from tripping the overload controller — this
	// test is about surface agreement, not the state machine.
	s, ts := newTestServer(t, Config{CoalesceLimit: 64, Workers: 4,
		Overload: overload.Config{Target: time.Second}})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		a, b := sortedInt64(rng, 20), sortedInt64(rng, 20)
		if code := post(t, ts, "/v1/merge", MergeRequest{A: a, B: b}, nil); code != http.StatusOK {
			t.Fatalf("small merge: status %d", code)
		}
	}
	big := sortedInt64(rng, 4000)
	if code := post(t, ts, "/v1/merge", MergeRequest{A: big, B: big}, nil); code != http.StatusOK {
		t.Fatalf("large merge: status %d", code)
	}
	if code := post(t, ts, "/v1/sort", SortRequest{Data: []int64{5, 2, 9, 1}}, nil); code != http.StatusOK {
		t.Fatalf("sort: status %d", code)
	}
	post(t, ts, "/v1/merge", MergeRequest{A: []int64{3, 1}}, nil) // 400
	// The server counts a request after writing its response, so the
	// client can see the 400 before it is counted: wait for the count.
	pollUntil(t, "the sixth merge request to be counted", func() bool {
		return s.Snapshot().Endpoints["merge"].Count == 6
	})

	// No /v1 traffic between the two scrapes, and the metrics endpoints
	// themselves mutate nothing, so the surfaces must agree exactly.
	samples := scrapeProm(t, ts)
	snap := s.Snapshot()

	agree := func(key string, want float64) {
		t.Helper()
		if got := sample(t, samples, key); got != want {
			t.Errorf("%s = %v, prom/JSON disagree (JSON says %v)", key, got, want)
		}
	}
	for name, e := range snap.Endpoints {
		lbl := `{endpoint="` + name + `"}`
		agree("mergepathd_requests_total"+lbl, float64(e.Count))
		agree(`mergepathd_request_errors_total{endpoint="`+name+`",class="4xx"}`, float64(e.Err4xx))
		agree(`mergepathd_request_errors_total{endpoint="`+name+`",class="5xx"}`, float64(e.Err5xx))
		agree("mergepathd_request_latency_seconds_count"+lbl, float64(e.Latency.Count))
		sum := sample(t, samples, "mergepathd_request_latency_seconds_sum"+lbl)
		if want := e.Latency.SumMS / 1e3; math.Abs(sum-want) > 1e-9 {
			t.Errorf("latency sum %s: prom %v s vs JSON %v ms", name, sum, e.Latency.SumMS)
		}
	}
	agree("mergepathd_queue_shed_total", float64(snap.Queue.Shed))
	agree("mergepathd_throttled_total", float64(snap.Queue.Throttled))
	agree("mergepathd_queue_capacity", float64(snap.Queue.Capacity))
	agree("mergepathd_batch_rounds_total", float64(snap.Pool.BatchRounds))
	agree("mergepathd_batch_pairs_total", float64(snap.Pool.BatchPairs))
	agree("mergepathd_run_rounds_total", float64(snap.Pool.RunRounds))
	agree("mergepathd_pool_workers", float64(snap.Pool.Workers))
	agree("mergepathd_round_imbalance", snap.Pool.LastRound.Imbalance)
	agree("mergepathd_round_imbalance_max", snap.Pool.ImbalanceMax)
	agree("mergepathd_round_workers", float64(snap.Pool.LastRound.Workers))
	for _, stage := range StageNames() {
		h, ok := snap.Stages[stage]
		if !ok {
			t.Errorf("JSON snapshot missing stage %q", stage)
			continue
		}
		agree(`mergepathd_stage_latency_seconds_count{stage="`+stage+`"}`, float64(h.Count))
	}

	// Overload controller: the state machine must read identically on all
	// three surfaces (prom here, the JSON snapshot, and /healthz below).
	// Interval-scoped signals (sojourn min) can roll over between scrapes,
	// so the agreement set is the stable-by-construction fields.
	ov := snap.Overload
	if ov.State != "healthy" {
		t.Errorf("overload state %q after light traffic, want healthy", ov.State)
	}
	for _, st := range []string{"healthy", "degraded", "shedding"} {
		want := 0.0
		if st == ov.State {
			want = 1
		}
		agree(`mergepathd_overload_state{state="`+st+`"}`, want)
	}
	agree("mergepathd_overload_state_code", float64(ov.StateCode))
	agree("mergepathd_overload_target_seconds", ov.TargetMS/1e3)
	agree("mergepathd_overload_backlog_elements", float64(ov.BacklogElements))
	agree("mergepathd_overload_drain_elements_per_second", ov.DrainElemsPerSec)
	agree("mergepathd_overload_retry_after_seconds", float64(ov.RetryAfterSeconds))
	agree("mergepathd_overload_shed_total", float64(ov.ShedTotal))
	agree(`mergepathd_overload_transitions_total{to="degraded"}`, float64(ov.TransitionsDegraded))
	agree(`mergepathd_overload_transitions_total{to="shedding"}`, float64(ov.TransitionsShedding))
	agree(`mergepathd_overload_transitions_total{to="healthy"}`, float64(ov.TransitionsHealthy))
	if sample(t, samples, "mergepathd_overload_drain_elements_per_second") <= 0 {
		t.Error("drain rate still zero after completed rounds")
	}

	// /healthz reports the same state machine.
	hres, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var health struct {
		Status   string `json:"status"`
		Overload struct {
			State string `json:"state"`
		} `json:"overload"`
	}
	if err := json.NewDecoder(hres.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Overload.State != ov.State {
		t.Errorf("healthz status=%q overload.state=%q, want ok/%s", health.Status, health.Overload.State, ov.State)
	}

	// The traffic above must actually have moved the needles.
	if sample(t, samples, `mergepathd_requests_total{endpoint="merge"}`) != 6 {
		t.Errorf("merge requests_total = %v, want 6",
			samples[`mergepathd_requests_total{endpoint="merge"}`])
	}
	if sample(t, samples, "mergepathd_run_rounds_total") < 1 {
		t.Error("large merge did not record a run round")
	}
	if sample(t, samples, `mergepathd_stage_latency_seconds_count{stage="execute"}`) == 0 {
		t.Error("execute stage histogram never observed")
	}
}

func TestPromRenderEmptyRegistry(t *testing.T) {
	// A freshly started daemon must still expose a parseable document
	// (scrapers arrive before traffic does).
	_, ts := newTestServer(t, Config{})
	samples := scrapeProm(t, ts)
	if sample(t, samples, `mergepathd_requests_total{endpoint="merge"}`) != 0 {
		t.Error("fresh registry should report zero requests")
	}
	if sample(t, samples, "mergepathd_round_imbalance") != 0 {
		t.Error("no rounds ran; imbalance gauge should be 0")
	}
}

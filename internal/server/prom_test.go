package server

import (
	"encoding/json"
	"io"
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

// scrapeProm fetches /metrics/prom and parses it with parseProm.
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
	return parseProm(t, string(raw))
}

// parseProm validates every line of an exposition document against the
// grammar (including HELP/TYPE-before-first-sample ordering, and each
// family's lines forming one group), and returns the samples keyed by
// "name{labels}".
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	if !strings.HasSuffix(text, "\n") {
		t.Error("exposition must end with a newline")
	}

	samples := make(map[string]float64)
	typed := make(map[string]string) // metric name -> declared type
	helped := make(map[string]bool)
	ended := make(map[string]bool) // families whose group is over
	family := ""
	group := func(i int, name string) {
		if name == family {
			return
		}
		if ended[name] {
			t.Errorf("line %d: family %s split into more than one group", i+1, name)
		}
		ended[family] = true
		family = name
	}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := promHelpRe.FindStringSubmatch(line); m != nil {
				group(i, m[1])
				if helped[m[1]] {
					t.Errorf("line %d: duplicate HELP for %s", i+1, m[1])
				}
				helped[m[1]] = true
				continue
			}
			if m := promTypeRe.FindStringSubmatch(line); m != nil {
				group(i, m[1])
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
		group(i, base)
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

// promText renders the node's exposition of snap.
func promText(t *testing.T, snap MetricsSnapshot) string {
	t.Helper()
	text, err := promtext.Render(PromMetrics, snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
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

	// Every descriptor's series must read the same on /metrics/prom as
	// its JSON path does in /metrics, rendered through the same table.
	// Only the uptime and the interval-scoped sojourn can move between
	// the two scrapes (utilization divides by uptime).
	var doc map[string]any
	mres, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	if err := json.NewDecoder(mres.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	volatile := map[string]bool{"uptime_seconds": true, "pool.utilization": true, "overload.sojourn_min_ms": true}
	for _, d := range PromMetrics {
		text, err := promtext.Render([]promtext.Desc{d}, doc)
		if err != nil {
			t.Fatal(err)
		}
		want := parseProm(t, string(text))
		if len(want) == 0 {
			t.Errorf("%s: no series from JSON path %s", d.Name, d.Path)
		}
		for key, v := range want {
			if got, ok := samples[key]; !ok {
				t.Errorf("%s missing from /metrics/prom", key)
			} else if got != v && !volatile[d.Path] {
				t.Errorf("%s = %v, prom/JSON disagree (JSON %s gives %v)", key, got, d.Path, v)
			}
		}
	}

	// Overload controller: the state machine must read identically on all
	// three surfaces (prom and JSON above, /healthz below).
	ov := snap.Overload
	if ov.State != "healthy" {
		t.Errorf("overload state %q after light traffic, want healthy", ov.State)
	}
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

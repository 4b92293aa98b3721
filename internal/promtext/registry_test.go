package promtext_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mergepath/internal/promtext"
	"mergepath/internal/router"
	"mergepath/internal/server"
)

func TestRenderDialect(t *testing.T) {
	doc := map[string]any{
		"a":   map[string]any{"x_ms": 1500, "n": 3},
		"m":   map[string]any{"10": map[string]any{"v": 1}, "2": map[string]any{"v": 2}},
		"arr": []any{map[string]any{"id": `u"1`, "ok": true, "st": "b"}},
		"h":   map[string]any{"count": 4, "sum_ms": 10, "p50_ms": 1, "p95_ms": 2, "p99_ms": 3, "mean_ms": 2.5},
	}
	descs := []promtext.Desc{
		promtext.Gauge("x_seconds", "a.x_ms", "X."),
		promtext.Counter("c_total", "a.n", "C.").By(`k="1"`),
		promtext.Gauge("v", "m.*.v", "V.").By("key"),
		promtext.Counter("c_total", "a.n", "C.").By(`k="2"`),
		promtext.Gauge("ok", "arr[id].ok", "OK.").By("id"),
		promtext.Gauge("st", "arr[id].st", "St.").By("id").Hot("s", "a", "b"),
		promtext.Summary("h_seconds", "h", "H."),
		promtext.Gauge("absent", "a.none", "Absent."),
	}
	got, err := promtext.Render(descs, doc)
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_seconds X.
# TYPE x_seconds gauge
x_seconds 1.5
# HELP c_total C.
# TYPE c_total counter
c_total{k="1"} 3
c_total{k="2"} 3
# HELP v V.
# TYPE v gauge
v{key="2"} 2
v{key="10"} 1
# HELP ok OK.
# TYPE ok gauge
ok{id="u\"1"} 1
# HELP st St.
# TYPE st gauge
st{id="u\"1",s="a"} 0
st{id="u\"1",s="b"} 1
# HELP h_seconds H.
# TYPE h_seconds summary
h_seconds{quantile="0.5"} 0.001
h_seconds{quantile="0.95"} 0.002
h_seconds{quantile="0.99"} 0.003
h_seconds_sum 0.01
h_seconds_count 4
`
	if string(got) != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}

	for _, bad := range [][]promtext.Desc{
		{promtext.Gauge("a", "a", "Not a number.")},
		{promtext.Gauge("n", "a.n", "One help."), promtext.Gauge("n", "a.n", "Another help.")},
	} {
		if _, err := promtext.Render(bad, doc); err == nil {
			t.Errorf("Render(%v) succeeded, want an error", bad)
		}
	}
}

// daemons pairs each descriptor table with a fully populated snapshot
// of its daemon and the exposition the hand-written renderers it
// replaced produced for that snapshot.
var daemons = []struct {
	name   string
	descs  []promtext.Desc
	snap   any
	golden string
	// jsonOnly lists the numeric and bool /metrics leaves that no series
	// exports, as path patterns ("*" matches one key or array index).
	jsonOnly []string
}{
	{"node", server.PromMetrics, nodeFixture(), "node.prom", []string{
		"overload.interval_ms",          // configuration echo
		"pool.pairs_per_round",          // batch_pairs / batch_rounds
		"pool.last_round.mean_elements", // between min and max_elements
		"pool.last_round_loads.*.*",     // per-worker detail of one round
		"endpoints.*.latency.mean_ms", "endpoints.*.latency.max_ms",
		"stages.*.mean_ms", "stages.*.max_ms",
	}},
	{"router", router.PromMetrics, routerFixture(), "router.prom", []string{
		"endpoints.*.latency.mean_ms", "endpoints.*.latency.max_ms",
		"stages.*.mean_ms", "stages.*.max_ms",
	}},
}

// TestExpositionUnchanged compares each table's exposition of a fully
// populated snapshot with the hand-written renderer's, as sorted line
// sets: only the order of lines may differ.
func TestExpositionUnchanged(t *testing.T) {
	for _, d := range daemons {
		got, err := promtext.Render(d.descs, d.snap)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", d.golden))
		if err != nil {
			t.Fatal(err)
		}
		g, w := sortedLines(string(got)), sortedLines(string(want))
		for _, l := range g {
			if _, found := slices.BinarySearch(w, l); !found {
				t.Errorf("%s: line not in testdata/%s: %s", d.name, d.golden, l)
			}
		}
		for _, l := range w {
			if _, found := slices.BinarySearch(g, l); !found {
				t.Errorf("%s: line missing from the exposition: %s", d.name, l)
			}
		}
		if len(g) != len(w) {
			t.Errorf("%s: %d lines, testdata has %d", d.name, len(g), len(w))
		}
	}
}

func sortedLines(s string) []string {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	slices.Sort(lines)
	return lines
}

// TestEveryJSONLeafIsExported fails when a numeric or bool leaf of a
// /metrics document is neither mirrored by a descriptor nor listed as
// JSON-only, so a new field cannot silently miss the exposition.
func TestEveryJSONLeafIsExported(t *testing.T) {
	for _, d := range daemons {
		raw, err := json.Marshal(d.snap)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		var leaves []string
		collectLeaves("", doc, &leaves)
		var exported, jsonOnly []*regexp.Regexp
		for _, desc := range d.descs {
			exported = append(exported, pathRegexp(desc.Path, desc.Kind == "summary"))
		}
		for _, p := range d.jsonOnly {
			jsonOnly = append(jsonOnly, pathRegexp(p, false))
		}
		used := make(map[int]bool)
		for _, leaf := range leaves {
			if slices.ContainsFunc(exported, func(re *regexp.Regexp) bool { return re.MatchString(leaf) }) {
				continue
			}
			i := slices.IndexFunc(jsonOnly, func(re *regexp.Regexp) bool { return re.MatchString(leaf) })
			if i < 0 {
				t.Errorf("%s: /metrics leaf %s has no descriptor and is not listed as JSON-only", d.name, leaf)
				continue
			}
			used[i] = true
		}
		for i, p := range d.jsonOnly {
			if !used[i] {
				t.Errorf("%s: JSON-only pattern %s matches no unexported leaf", d.name, p)
			}
		}
	}
}

// collectLeaves appends the dotted path of every number and bool under v.
func collectLeaves(prefix string, v any, out *[]string) {
	join := func(k string) string { return strings.TrimPrefix(prefix+"."+k, ".") }
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			collectLeaves(join(k), c, out)
		}
	case []any:
		for i, c := range v {
			collectLeaves(join(strconv.Itoa(i)), c, out)
		}
	case float64, bool:
		*out = append(*out, prefix)
	}
}

// pathRegexp matches the concrete leaf paths a descriptor path reads;
// a summary reads its histogram's count, sum and quantile keys.
func pathRegexp(path string, summary bool) *regexp.Regexp {
	var parts []string
	for _, seg := range strings.Split(path, ".") {
		switch name, _, isArray := strings.Cut(seg, "["); {
		case seg == "*":
			parts = append(parts, `[^.]+`)
		case isArray:
			parts = append(parts, regexp.QuoteMeta(name)+`\.[0-9]+`)
		default:
			parts = append(parts, regexp.QuoteMeta(seg))
		}
	}
	re := strings.Join(parts, `\.`)
	if summary {
		re += `\.(count|sum_ms|p50_ms|p95_ms|p99_ms)`
	}
	return regexp.MustCompile("^" + re + "$")
}

// TestMetricsDocMatchesRegistry fails when an exposition table in
// docs/METRICS.md is not its descriptor table's rendering; the failure
// prints the table to paste in.
func TestMetricsDocMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, d := range []struct {
		table string
		descs []promtext.Desc
	}{{"server.PromMetrics", server.PromMetrics}, {"router.PromMetrics", router.PromMetrics}} {
		begin := fmt.Sprintf("<!-- BEGIN %s: generated, TestMetricsDocMatchesRegistry -->\n", d.table)
		end := fmt.Sprintf("<!-- END %s -->", d.table)
		_, rest, ok1 := strings.Cut(doc, begin)
		got, _, ok2 := strings.Cut(rest, end)
		want := markdown(d.descs)
		if !ok1 || !ok2 {
			t.Errorf("docs/METRICS.md has no %q ... %q block", strings.TrimSpace(begin), end)
		} else if got != want {
			t.Errorf("docs/METRICS.md is stale: the block for %s should read\n%s", d.table, want)
		}
	}
}

// markdown renders descs as the reference table, one row per family:
// name with its label names, type, the JSON paths it mirrors, and help.
func markdown(descs []promtext.Desc) string {
	var b strings.Builder
	b.WriteString("| Metric | Type | JSON source | Help |\n|---|---|---|---|\n")
	var done []string
	for _, fam := range descs {
		if slices.Contains(done, fam.Name) {
			continue
		}
		done = append(done, fam.Name)
		var labels, sources []string
		add := func(l string) {
			if !slices.Contains(labels, l) {
				labels = append(labels, l)
			}
		}
		for _, d := range descs {
			if d.Name != fam.Name {
				continue
			}
			src := "`" + d.Path + "`"
			for _, l := range d.Labels {
				name, _, fixed := strings.Cut(l, "=")
				add(name)
				if fixed {
					src += " → `" + l + "`"
				}
			}
			if len(d.OneHot) > 0 {
				add(d.OneHot[0])
				src += " one-hot over " + strings.Join(d.OneHot[1:], ", ")
			}
			sources = append(sources, src)
		}
		name := fam.Name
		if len(labels) > 0 {
			name += "{" + strings.Join(labels, ",") + "}"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", name, fam.Kind, strings.Join(sources, ", "), fam.Help)
	}
	return b.String()
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"mergepath/internal/wire"
)

func TestSameSeedSameBytes(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		a, b := genSmall(seed), genSmall(seed)
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) || !bytes.Equal(a[i].want, b[i].want) {
				t.Fatalf("seed %d: small request %d differs between two generations", seed, i)
			}
		}
		la, lb := genLarge(seed, false), genLarge(seed, false)
		for i := range la {
			if !bytes.Equal(la[i].body, lb[i].body) || !bytes.Equal(la[i].want, lb[i].want) {
				t.Fatalf("seed %d: large request %d differs between two generations", seed, i)
			}
		}
		da, sa := genDataset(seed)
		db, sb := genDataset(seed)
		if !bytes.Equal(da, db) || sa != sb {
			t.Fatalf("seed %d: dataset differs between two generations", seed)
		}
	}
}

func TestDifferentSeedDifferentBytes(t *testing.T) {
	a, b := genSmall(1), genSmall(2)
	same := 0
	for i := range a {
		if bytes.Equal(a[i].body, b[i].body) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 generate identical small pools")
	}
	if la, lb := genLarge(1, false), genLarge(2, false); bytes.Equal(la[0].body, lb[0].body) {
		t.Fatal("seeds 1 and 2 generate the same first large request")
	}
	d1, s1 := genDataset(1)
	d2, s2 := genDataset(2)
	if bytes.Equal(d1, d2) || s1 == s2 {
		t.Fatal("seeds 1 and 2 generate the same dataset")
	}
}

// TestSeedsKeepWorkProfile pins the stratification: two seeds give pools
// with the same kind counts, the same output sizes for merge, sort and
// mergek requests (whose output size is their input size), and nearly
// the same total output size.
func TestSeedsKeepWorkProfile(t *testing.T) {
	profile := func(pool []*request) (map[string]int, int) {
		kinds, elems := map[string]int{}, 0
		for _, rq := range pool {
			kinds[rq.kind]++
			elems += rq.elems
		}
		return kinds, elems
	}
	for _, gen := range []func(uint64) []*request{genSmall, func(s uint64) []*request { return genLarge(s, false) }} {
		k1, e1 := profile(gen(1))
		k2, e2 := profile(gen(2))
		if len(k1) != len(k2) {
			t.Fatalf("kind counts differ: %v vs %v", k1, k2)
		}
		for k, v := range k1 {
			if k2[k] != v {
				t.Fatalf("kind counts differ: %v vs %v", k1, k2)
			}
		}
		if d := math.Abs(float64(e1-e2)) / float64(e1); d > 0.05 {
			t.Fatalf("total output elements differ by %.1f%% (%d vs %d)", 100*d, e1, e2)
		}
		s1, s2 := sizes(gen(1)), sizes(gen(2))
		for k, v := range s1 {
			if !slices.Equal(v, s2[k]) {
				t.Fatalf("%s output sizes differ between seeds", k)
			}
		}
	}
}

// sizes returns the sorted output sizes of each kind whose output size
// is fixed by its input sizes.
func sizes(pool []*request) map[string][]int {
	out := map[string][]int{}
	for _, rq := range pool {
		if rq.kind == "merge" || rq.kind == "sort" || rq.kind == "mergek" {
			out[rq.kind] = append(out[rq.kind], rq.elems)
		}
	}
	for _, v := range out {
		slices.Sort(v)
	}
	return out
}

// TestFrameMatchesWire cross-checks the benchmark's own frame encoder
// against the wire package on one input.
func TestFrameMatchesWire(t *testing.T) {
	lists := [][]int64{{-3, 1, 1, 9}, {}, {7}}
	if got, want := frame(lists...), wire.AppendInt64(nil, lists...); !bytes.Equal(got, want) {
		t.Fatalf("frame = %x, wire.AppendInt64 = %x", got, want)
	}
	if got := unframe(frame([]int64{5, 6})); !slices.Equal(got, []int64{5, 6}) {
		t.Fatalf("unframe(frame(5,6)) = %v", got)
	}
}

func TestRefSetop(t *testing.T) {
	a, b := []int64{1, 1, 2, 4, 4, 4}, []int64{1, 3, 4, 4}
	for op, want := range map[string][]int64{
		"union":     {1, 1, 2, 3, 4, 4, 4},
		"intersect": {1, 4, 4},
		"diff":      {1, 2, 4},
	} {
		if got := refSetop(op, a, b); !slices.Equal(got, want) {
			t.Errorf("%s = %v, want %v", op, got, want)
		}
	}
}

func TestSelectRequest(t *testing.T) {
	rq := selectRequest([]int64{1, 3, 3}, []int64{2, 3, 5}, 4)
	// Stable merge 1(a) 2(b) 3(a) 3(a) 3(b) 5(b): the first four take
	// three from a and one from b, and the fourth is 3.
	if want := "{\"a_rank\":3,\"b_rank\":1,\"kth\":3}\n"; string(rq.want) != want {
		t.Fatalf("want %q, got %q", want, rq.want)
	}
	if want := `{"a":[1,3,3],"b":[2,3,5],"k":4}`; string(rq.body) != want {
		t.Fatalf("body %q, want %q", rq.body, want)
	}
}

func TestAccounting(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := &sample{
		due: t0, send: t0.Add(time.Millisecond), headers: t0.Add(5 * time.Millisecond), done: t0.Add(6 * time.Millisecond),
		ok: true, st: parseServerTiming("decode;dur=0.500, queue_wait;dur=0.250, coalesce_wait;dur=0.500, partition;dur=0.010, merge;dur=0.400, execute;dur=2.000"),
	}
	a := account(s)
	if err := checkAccounting(a); err != nil {
		t.Fatal(err)
	}
	if a.round != 1.25 || a.write != 1 || a.other != 2.5 {
		t.Fatalf("round %v write %v other %v, want 1.25 1 2.5", a.round, a.write, a.other)
	}
	// execute is shorter than the waits it contains: round would be
	// negative, which the check must refuse.
	s.st["execute"] = 0.5
	if err := checkAccounting(account(s)); err == nil {
		t.Fatal("negative round passed the accounting check")
	}
}

func TestQuantiles(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i)
	}
	if q := quantile(v, 0.5); q != 50 {
		t.Fatalf("median = %v, want 50", q)
	}
	if _, err := tailQuantile(v, 0.9); err != nil {
		t.Fatalf("p90 of 100 samples has ten beyond it: %v", err)
	}
	if _, err := tailQuantile(v, 0.95); err == nil {
		t.Fatal("p95 of 100 samples accepted with five samples beyond it")
	}
	if got, pct := tenBeyond(v); got != 90 || pct != 90 {
		t.Fatalf("tenBeyond = %v at p%v, want 90 at p90", got, pct)
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the metric tables in step,
// and holds every name to the benchmark's name rule.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: unknown or badly named", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for _, set := range []struct {
		file []entry
		code []metricSpec
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(set.file) != len(set.code) {
			t.Fatalf("BENCHMARK.json has %d metrics where the code has %d", len(set.file), len(set.code))
		}
		for i, m := range set.code {
			if f := set.file[i]; f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
				t.Errorf("metric %d: file %+v, code %s %s %s", i, f, m.Name, m.Unit, m.Better)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q breaks the name rule", m.Name)
			}
		}
	}
	for w, names := range exact {
		for _, n := range names {
			if !slices.ContainsFunc(perLayer, func(m metricSpec) bool { return m.Name == n }) {
				t.Errorf("exact count %s on %s is not a per-layer metric", n, w)
			}
		}
	}
}

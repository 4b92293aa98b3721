package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"mergepath/internal/kway"
	"mergepath/internal/verify"
)

// TestMergeKStrategyIdentical pins the server-level contract behind
// the auto k-way choice: /v1/mergek responses equal kway.HeapMerge
// whichever strategy the input resolves to — the sequential merge for
// a small request, co-rank windows for a large one, and the merge-path
// round for two runs.
func TestMergeKStrategyIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	rng := rand.New(rand.NewSource(50))
	for _, tc := range []struct{ k, maxLen int }{{9, 700}, {9, 4000}, {2, 9000}} {
		lists := make([][]int64, tc.k)
		for i := range lists {
			lists[i] = sortedInt64(rng, rng.Intn(tc.maxLen))
		}
		var got MergeKResponse
		if code := post(t, ts, "/v1/mergek", MergeKRequest{Lists: lists}, &got); code != http.StatusOK {
			t.Fatalf("k=%d: status %d", tc.k, code)
		}
		if !verify.Equal(got.Result, kway.HeapMerge(lists)) {
			t.Fatalf("k=%d: response differs from kway.HeapMerge", tc.k)
		}
	}
	if snap := s.Snapshot(); snap.KWay.MergesHeap != 1 || snap.KWay.MergesCoRank != 2 {
		t.Fatalf("kway merge counters: %+v", snap.KWay)
	}
}

// TestKWayMetricsSurfaces drives a /v1/mergek large enough to co-rank
// and checks all three observability surfaces agree: the kway block on
// /metrics, the mergepathd_kway_* series on /metrics/prom and the kway
// block on /healthz.
func TestKWayMetricsSurfaces(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	rng := rand.New(rand.NewSource(51))
	lists := make([][]int64, 6)
	for i := range lists {
		lists[i] = sortedInt64(rng, 2000)
	}
	if code := post(t, ts, "/v1/mergek", MergeKRequest{Lists: lists}, nil); code != http.StatusOK {
		t.Fatalf("mergek status %d", code)
	}

	var snap MetricsSnapshot
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(mresp.Body).Decode(&snap)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.KWay.MergesCoRank != 1 || snap.KWay.MergesHeap != 0 {
		t.Fatalf("kway merge counters: %+v", snap.KWay)
	}
	if snap.KWay.LastK != len(lists) {
		t.Fatalf("kway last_k %d, want %d", snap.KWay.LastK, len(lists))
	}
	if snap.KWay.LastWorkers < 1 {
		t.Fatalf("kway last_workers %d", snap.KWay.LastWorkers)
	}
	// The co-rank cut balances windows to within one element, so the
	// recorded imbalance must be ~1.0 — Theorem 5 extended to k runs.
	if snap.KWay.ImbalanceMax == 0 || snap.KWay.ImbalanceMax > 1.5 {
		t.Fatalf("kway imbalance_max %.3f", snap.KWay.ImbalanceMax)
	}
	// The window loads also feed the pool-wide round-balance metrics.
	if snap.Pool.ImbalanceMax == 0 {
		t.Fatal("co-rank loads did not reach the pool round metrics")
	}

	presp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	for _, series := range []string{
		`mergepathd_kway_merges_total{strategy="corank"} 1`,
		`mergepathd_kway_merges_total{strategy="heap"} 0`,
		"mergepathd_kway_last_k 6",
		"mergepathd_kway_imbalance_max 1",
	} {
		if !strings.Contains(string(prom), series) {
			t.Fatalf("prom exposition missing %q", series)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	err = json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.KWay == nil || h.KWay.MergesCoRank != 1 {
		t.Fatalf("healthz kway block: %+v", h.KWay)
	}
}

// TestKWayAutoStrategyCounts checks auto resolves per call: a small
// mergek lands on the heap counter (below the co-rank threshold), and
// two runs on the co-rank counter however small, never an auto label.
func TestKWayAutoStrategyCounts(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if code := post(t, ts, "/v1/mergek", MergeKRequest{Lists: [][]int64{{1, 3}, {2}, {4}}}, nil); code != http.StatusOK {
		t.Fatalf("mergek status %d", code)
	}
	if snap := s.Snapshot(); snap.KWay.MergesHeap != 1 || snap.KWay.MergesCoRank != 0 {
		t.Fatalf("small mergek should resolve to heap: %+v", snap.KWay)
	}
	if code := post(t, ts, "/v1/mergek", MergeKRequest{Lists: [][]int64{{1, 3}, {2}}}, nil); code != http.StatusOK {
		t.Fatalf("mergek status %d", code)
	}
	if snap := s.Snapshot(); snap.KWay.MergesHeap != 1 || snap.KWay.MergesCoRank != 1 {
		t.Fatalf("two-run mergek should resolve to corank: %+v", snap.KWay)
	}
}

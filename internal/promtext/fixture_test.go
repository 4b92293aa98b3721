package promtext_test

import (
	"mergepath/internal/jobs"
	"mergepath/internal/overload"
	"mergepath/internal/router"
	"mergepath/internal/server"
	"mergepath/internal/stats"
)

// hist is a populated latency snapshot scaled by base milliseconds.
func hist(base float64) stats.HistogramSnapshot {
	return stats.HistogramSnapshot{Count: uint64(base * 8), MeanMS: base, P50MS: base * 0.75,
		P95MS: base * 2, P99MS: base * 3.5, MaxMS: base * 5, SumMS: base * base * 8}
}

// nodeFixture is a fully populated node snapshot: every counter is
// non-zero and jobs are present.
func nodeFixture() server.MetricsSnapshot {
	s := server.MetricsSnapshot{
		UptimeSeconds: 3600.5,
		Queue:         server.QueueSnapshot{Depth: 3, Capacity: 1024, Shed: 5, Timeouts: 6, Throttled: 7, Canceled: 8, ShedAtFlush: 9},
		Pool: server.PoolSnapshot{Workers: 4, Utilization: 0.375, BusySeconds: 12.5, BatchRounds: 31, BatchPairs: 97,
			BatchElems: 4000, PairsPerRound: 97.0 / 31, RunRounds: 9, PanicsRecovered: 2,
			LastRoundLoad: []stats.WorkerLoad{{Elements: 100, Pairs: 2, SearchMS: 0.01, MergeMS: 0.5}, {Elements: 104, Pairs: 3, SearchMS: 0.02, MergeMS: 0.6}},
			LastRound:     stats.LoadSummary{Workers: 4, Min: 100, Max: 104, Mean: 102, Imbalance: 1.04},
			ImbalanceMax:  1.5, ImbalanceMean: 1.125},
		Endpoints: map[string]server.EndpointSnapshot{},
		Stages:    map[string]stats.HistogramSnapshot{},
		Overload: overload.Snapshot{State: "degraded", StateCode: 1, TargetMS: 5, IntervalMS: 100, SojournMinMS: 7.25,
			BacklogElements: 4096, DrainElemsPerSec: 1.5e6, RetryAfterSeconds: 3, ShedTotal: 11,
			TransitionsDegraded: 4, TransitionsShedding: 2, TransitionsHealthy: 1},
		Wire: server.WireSnapshot{RequestsJSON: 101, RequestsBinary: 102, ResponsesJSON: 103, ResponsesBinary: 104, UnsupportedMediaType: 105},
		KWay: server.KWaySnapshot{MergesHeap: 21, MergesCoRank: 22, LastK: 5, LastWorkers: 2, ImbalanceMax: 1.25, ImbalanceMean: 1.0625},
		Jobs: &jobs.Snapshot{Submitted: 41, Completed: 35, Failed: 2, Canceled: 3, Expired: 4, ShedBusy: 5, Running: 1,
			Pending: 2, QueueCapacity: 64, MaxConcurrent: 2, Tracked: 38, Datasets: 6, DatasetBytes: 1 << 24,
			MemoryRecords: 65536, BlockReads: 900, BlockWrites: 800, GCSweeps: 12, FilesRemoved: 13, ResultAborts: 1,
			Durability: jobs.DurabilitySnapshot{JournalEnabled: true, FsyncPolicy: "state", JournalAppends: 120,
				JournalReplayed: 30, Fsyncs: 140, RecoveredDatasets: 3, RecoveredResults: 2, RecoveredFailed: 1,
				OrphansRemoved: 4, CorruptionDetected: 1}},
	}
	for i, name := range []string{"merge", "sort", "mergek", "setops", "select", "datasets", "jobs"} {
		f := float64(i + 1)
		s.Endpoints[name] = server.EndpointSnapshot{Count: uint64(100 * f), Err4xx: uint64(3 * f), Err5xx: uint64(f), Latency: hist(f)}
	}
	for i, name := range server.StageNames() {
		s.Stages[name] = hist(0.5 * float64(i+1))
	}
	return s
}

// routerFixture is a fully populated router snapshot: two backends and
// fan-out keys 2, 3 and 10.
func routerFixture() router.MetricsSnapshot {
	s := router.MetricsSnapshot{
		UptimeSeconds: 1800.25,
		Routing: router.RoutingSnapshot{Routed: 40, Scattered: 12, Rerouted: 3, Failed: 1, BinaryHops: 30,
			Fanout: map[int]uint64{2: 5, 3: 4, 10: 3}},
		Backends: []router.BackendSnapshot{
			{URL: "http://10.0.0.1:8080", State: "healthy", BacklogElements: 100, QueueDepth: 2, DrainElemsPerSec: 2.5e6,
				Requests: 50, Errors: 2, Breakers: map[string]string{"/v1/merge": "open", "/v1/sort": "closed", "/v1/mergek": "half-open"},
				BreakersOpen: 2},
			{URL: "http://10.0.0.2:8080", State: "degraded", BacklogElements: 7, QueueDepth: 1, DrainElemsPerSec: 1.25e6,
				Requests: 60, Errors: 4, Breakers: map[string]string{"/v1/merge": "open"}, BreakersOpen: 1},
		},
		Endpoints: map[string]server.EndpointSnapshot{},
		Stages:    map[string]stats.HistogramSnapshot{},
	}
	for i, name := range []string{"merge", "sort", "mergek", "setops", "select"} {
		f := float64(i + 2)
		s.Endpoints[name] = server.EndpointSnapshot{Count: uint64(10 * f), Err4xx: uint64(2 * f), Err5xx: uint64(f), Latency: hist(f)}
	}
	for i, name := range router.StageNames() {
		s.Stages[name] = hist(0.25 * float64(i+1))
	}
	return s
}

package main

// metricSpec declares one reported metric. BENCHMARK.json lists the
// same names, units and directions (a test keeps the two in step);
// Moves and On record, for a per-layer metric, which end-to-end metric
// it should move and on which workloads its layer is exercised. On the
// other workloads a traced run reports it as 0.
type metricSpec struct {
	Name, Unit, Better string
	Moves, On          string
}

const (
	onSmall = "rpc-small-json"
	onLarge = "rpc-large-binary"
	onRPC   = "rpc-small-json rpc-large-binary"
	onJobs  = "jobs-extsort"
	onSort  = "rpc-large-binary jobs-extsort"
	onAll   = "rpc-small-json rpc-large-binary jobs-extsort"
)

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "throughput_eps", Unit: "elements/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tail_ms", Unit: "ms", Better: "lower"},
	{Name: "slo_rps", Unit: "req/s", Better: "higher"},
	{Name: "success_ratio", Unit: "ratio", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
}

// timing declares a per-layer timing as its .p50 and .tail pair.
func timing(name, unit, moves, on string) []metricSpec {
	return []metricSpec{
		{Name: name + ".p50", Unit: unit, Better: "lower", Moves: moves, On: on},
		{Name: name + ".tail", Unit: unit, Better: "lower", Moves: moves, On: on},
	}
}

func one(name, unit, better, moves, on string) []metricSpec {
	return []metricSpec{{Name: name, Unit: unit, Better: better, Moves: moves, On: on}}
}

const (
	movesLatency = "p50_ms tail_ms slo_rps"
	movesKernel  = "throughput_eps p50_ms"
	movesThru    = "throughput_eps"
)

var perLayer = concat(
	timing("server.decode_ms", "ms", movesLatency, onRPC),
	timing("server.queue_wait_ms", "ms", movesLatency, onRPC),
	timing("server.coalesce_wait_ms", "ms", movesLatency, onRPC),
	timing("server.round_ms", "ms", movesLatency, onRPC),
	timing("server.write_ms", "ms", movesLatency, onRPC),
	timing("server.other_ms", "ms", movesLatency, onRPC),
	timing("server.partition_worker_ms", "ms", movesLatency, onRPC),
	timing("server.merge_worker_ms", "ms", movesLatency, onRPC),
	one("server.rounds_batch", "count", "lower", movesLatency, onRPC),
	one("server.rounds_run", "count", "lower", movesLatency, onRPC),
	one("server.pairs_per_batch_round", "pairs", "higher", movesLatency, onRPC),
	one("server.shed_total", "count", "lower", movesLatency, onRPC),
	one("server.imbalance_max", "ratio", "lower", movesLatency, onRPC),
	one("overload.transitions", "count", "lower", movesLatency, onRPC),

	timing("wire.decode_ns_per_elem", "ns/elem", "p50_ms throughput_eps", onLarge),
	timing("wire.encode_ns_per_elem", "ns/elem", "p50_ms throughput_eps", onLarge),
	one("wire.alloc_bytes_per_elem", "B/elem", "lower", "peak_rss_mb", onLarge),

	timing("core.partition_ns", "ns", movesKernel, onLarge),
	timing("core.merge_ns_per_elem", "ns/elem", movesKernel, onLarge),
	timing("core.merge_seq_ns_per_elem", "ns/elem", movesKernel, onLarge),
	one("core.speedup", "ratio", "higher", movesKernel, onLarge),
	one("core.bytes_per_s_computed", "B/s", "higher", movesKernel, onLarge),

	timing("batch.merge_ns_per_elem", "ns/elem", movesKernel, onSmall),
	one("batch.pairs_per_call", "pairs", "higher", movesKernel, onSmall),

	timing("psort.sort_ns_per_elem", "ns/elem", movesThru, onSort),
	timing("psort.sort_seq_ns_per_elem", "ns/elem", movesThru, onSort),
	one("psort.alloc_bytes_per_elem", "B/elem", "lower", movesThru, onSort),

	timing("kway.merge_ns_per_elem", "ns/elem", movesThru, onSort),
	one("kway.strategy_heap", "count", "lower", movesThru, onSort),
	one("kway.strategy_tree", "count", "lower", movesThru, onSort),
	one("kway.strategy_corank", "count", "higher", movesThru, onSort),
	one("kway.imbalance", "ratio", "lower", movesThru, onSort),
	timing("kway.corank_ns", "ns", movesThru, onSort),

	timing("setops.ns_per_elem", "ns/elem", "p50_ms", onSmall),

	one("jobs.upload_mb_per_s", "MB/s", "higher", movesKernel, onJobs),
	timing("jobs.queue_wait_ms", "ms", movesKernel, onJobs),
	timing("jobs.copy_in_ms", "ms", movesKernel, onJobs),
	timing("jobs.run_formation_ms", "ms", movesKernel, onJobs),
	timing("jobs.merge_ms", "ms", movesKernel, onJobs),
	one("jobs.result_mb_per_s", "MB/s", "higher", movesKernel, onJobs),
	one("jobs.journal_appends", "count", "lower", movesKernel, onJobs),
	one("jobs.fsyncs", "count", "lower", movesKernel, onJobs),

	one("extsort.runs", "count", "lower", movesThru, onJobs),
	one("extsort.merge_passes", "count", "lower", movesThru, onJobs),
	one("extsort.block_reads", "count", "lower", movesThru, onJobs),
	one("extsort.block_writes", "count", "lower", movesThru, onJobs),
	one("extsort.write_amplification", "ratio", "lower", movesThru, onJobs),
	one("extsort.peak_buffer_records", "records", "lower", movesThru, onJobs),
	timing("extsort.crc_verify_ns_per_byte", "ns/B", movesThru, onJobs),

	timing("loadgen.lateness_ms", "ms", "p50_ms tail_ms", onRPC),
	one("trace.overhead_p50_ms", "ms", "lower", "p50_ms", onAll),
	one("trace.overhead_tail_ms", "ms", "lower", "tail_ms", onAll),
)

func concat(groups ...[]metricSpec) []metricSpec {
	var out []metricSpec
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// exact names the per-layer counts that must repeat exactly across two
// traced runs with the same seed, with the workload each is checked on.
var exact = map[string][]string{
	"rpc-large-binary": {"server.rounds_run"},
	"jobs-extsort": {"extsort.runs", "extsort.merge_passes", "extsort.block_reads",
		"extsort.block_writes", "jobs.journal_appends", "jobs.fsyncs"},
}

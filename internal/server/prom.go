package server

import "mergepath/internal/promtext"

// PromMetrics declares every series of the node's Prometheus exposition
// on GET /metrics/prom, each with the MetricsSnapshot JSON path it
// mirrors; promtext renders it over the same snapshot as /metrics.
var PromMetrics = append([]promtext.Desc{
	promtext.Gauge("mergepathd_uptime_seconds", "uptime_seconds", "Seconds since the server started."),

	// Queue / admission control.
	promtext.Gauge("mergepathd_queue_depth", "queue.depth", "Jobs currently in the admission queue."),
	promtext.Gauge("mergepathd_queue_capacity", "queue.capacity", "Admission queue capacity; a full queue sheds with 503."),
	promtext.Counter("mergepathd_queue_shed_total", "queue.shed_total", "Requests shed with 503 because the admission queue was full."),
	promtext.Counter("mergepathd_throttled_total", "queue.throttled_total", "Requests shed with 429 by the adaptive overload controller."),
	promtext.Counter("mergepathd_request_timeouts_total", "queue.timeouts_total", "Requests whose deadline expired before completion (504)."),
	promtext.Counter("mergepathd_requests_canceled_total", "queue.canceled_total", "Requests abandoned by their client before completion (499)."),
	promtext.Counter("mergepathd_shed_at_flush_total", "queue.shed_at_flush_total", "Coalesced pairs dropped expired or canceled at batch-flush time."),

	// Pool / rounds.
	promtext.Gauge("mergepathd_pool_workers", "pool.workers", "Fixed worker pool size; every round engages all workers."),
	promtext.Gauge("mergepathd_pool_utilization", "pool.utilization", "Fraction of uptime the pool spent executing rounds."),
	promtext.Counter("mergepathd_pool_busy_seconds_total", "pool.busy_seconds", "Total seconds the pool spent executing rounds."),
	promtext.Counter("mergepathd_batch_rounds_total", "pool.batch_rounds", "Coalesced (multi-request) batch rounds executed."),
	promtext.Counter("mergepathd_batch_pairs_total", "pool.batch_pairs", "Small merge requests coalesced into batch rounds."),
	promtext.Counter("mergepathd_batch_elements_total", "pool.batch_elements", "Output elements produced by coalesced batch rounds."),
	promtext.Counter("mergepathd_run_rounds_total", "pool.run_rounds", "Uncoalesced whole-pool rounds (large merges) with load stats."),
	promtext.Counter("mergepathd_panics_recovered_total", "pool.panics_recovered", "Request-induced panics recovered inside rounds (per-job 500s)."),

	// Load balance: the paper's Theorem 5 check. 1.0 = perfect.
	promtext.Gauge("mergepathd_round_imbalance", "pool.last_round.imbalance", "Max/min elements per worker of the latest balanced round (Theorem 5 predicts ~1.0)."),
	promtext.Gauge("mergepathd_round_imbalance_max", "pool.imbalance_max", "Worst per-round load-imbalance ratio since start."),
	promtext.Gauge("mergepathd_round_imbalance_mean", "pool.imbalance_mean", "Mean per-round load-imbalance ratio since start."),
	promtext.Gauge("mergepathd_round_workers", "pool.last_round.workers", "Workers engaged by the latest balanced round."),
	promtext.Gauge("mergepathd_round_min_elements", "pool.last_round.min_elements", "Fewest elements any worker merged in the latest balanced round."),
	promtext.Gauge("mergepathd_round_max_elements", "pool.last_round.max_elements", "Most elements any worker merged in the latest balanced round."),

	// Overload controller: state machine, congestion signal and the
	// computed Retry-After.
	promtext.Gauge("mergepathd_overload_state", "overload.state", "Overload state machine, one-hot: 1 on the series matching the current state.").Hot("state", "healthy", "degraded", "shedding"),
	promtext.Gauge("mergepathd_overload_state_code", "overload.state_code", "Overload state as a number: 0 healthy, 1 degraded, 2 shedding."),
	promtext.Gauge("mergepathd_overload_target_seconds", "overload.target_ms", "CoDel queue-sojourn target."),
	promtext.Gauge("mergepathd_overload_sojourn_min_seconds", "overload.sojourn_min_ms", "Minimum queue sojourn of the last completed interval with traffic (the congestion signal)."),
	promtext.Gauge("mergepathd_overload_backlog_elements", "overload.backlog_elements", "Elements admitted but not yet finished."),
	promtext.Gauge("mergepathd_overload_drain_elements_per_second", "overload.drain_elems_per_sec", "EWMA element throughput of completed rounds."),
	promtext.Gauge("mergepathd_overload_retry_after_seconds", "overload.retry_after_s", "Computed Retry-After currently quoted on 429/503 responses."),
	promtext.Counter("mergepathd_overload_shed_total", "overload.shed_total", "Admissions refused by the overload controller while shedding."),
	promtext.Counter("mergepathd_overload_transitions_total", "overload.transitions_degraded_total", "Overload state transitions, by destination state.").By(`to="degraded"`),
	promtext.Counter("mergepathd_overload_transitions_total", "overload.transitions_shedding_total", "Overload state transitions, by destination state.").By(`to="shedding"`),
	promtext.Counter("mergepathd_overload_transitions_total", "overload.transitions_healthy_total", "Overload state transitions, by destination state.").By(`to="healthy"`),

	// Wire formats: body counts by negotiated encoding and 415 refusals.
	promtext.Counter("mergepathd_wire_requests_total", "wire.requests_json", "Request bodies on the /v1 endpoints, by negotiated format.").By(`format="json"`),
	promtext.Counter("mergepathd_wire_requests_total", "wire.requests_binary", "Request bodies on the /v1 endpoints, by negotiated format.").By(`format="binary"`),
	promtext.Counter("mergepathd_wire_responses_total", "wire.responses_json", "Responses written on the /v1 endpoints, by format.").By(`format="json"`),
	promtext.Counter("mergepathd_wire_responses_total", "wire.responses_binary", "Responses written on the /v1 endpoints, by format.").By(`format="binary"`),
	promtext.Counter("mergepathd_unsupported_media_type_total", "wire.unsupported_media_type_total", "Requests refused with 415 for an unknown or endpoint-inapplicable Content-Type."),

	// K-way merges: rounds by executed strategy, and the co-rank window
	// balance — the Theorem 5 check extended to k runs (docs/KWAY.md).
	promtext.Counter("mergepathd_kway_merges_total", "kway.merges_heap", "K-way merge rounds, by executed strategy.").By(`strategy="heap"`),
	promtext.Counter("mergepathd_kway_merges_total", "kway.merges_corank", "K-way merge rounds, by executed strategy.").By(`strategy="corank"`),
	promtext.Gauge("mergepathd_kway_last_k", "kway.last_k", "Run count of the latest k-way merge round."),
	promtext.Gauge("mergepathd_kway_last_workers", "kway.last_workers", "Parallel windows of the latest k-way merge round."),
	promtext.Gauge("mergepathd_kway_imbalance_max", "kway.imbalance_max", "Worst co-rank per-window load-imbalance ratio since start (~1.0 by construction)."),
	promtext.Gauge("mergepathd_kway_imbalance_mean", "kway.imbalance_mean", "Mean co-rank per-window load-imbalance ratio since start."),

	// Jobs subsystem: submission outcomes, occupancy, spill usage and
	// the external-sort engine's block I/O.
	promtext.Counter("mergepathd_jobs_submitted_total", "jobs.submitted_total", "Jobs admitted since start."),
	promtext.Counter("mergepathd_jobs_completed_total", "jobs.completed_total", "Jobs that finished successfully."),
	promtext.Counter("mergepathd_jobs_failed_total", "jobs.failed_total", "Jobs that ended in failure."),
	promtext.Counter("mergepathd_jobs_canceled_total", "jobs.canceled_total", "Jobs canceled before completion."),
	promtext.Counter("mergepathd_jobs_expired_total", "jobs.expired_total", "Finished jobs whose files the TTL sweeper removed."),
	promtext.Counter("mergepathd_jobs_shed_busy_total", "jobs.shed_busy_total", "Job submissions refused because the job queue was full."),
	promtext.Gauge("mergepathd_jobs_running", "jobs.running", "Jobs executing right now."),
	promtext.Gauge("mergepathd_jobs_pending", "jobs.pending", "Jobs waiting in the bounded job queue."),
	promtext.Gauge("mergepathd_jobs_queue_capacity", "jobs.queue_capacity", "Job queue bound; a full queue sheds with 503."),
	promtext.Gauge("mergepathd_jobs_max_concurrent", "jobs.max_concurrent", "Bound on jobs executing at once."),
	promtext.Gauge("mergepathd_jobs_tracked", "jobs.tracked", "Job records currently retained (all states)."),
	promtext.Gauge("mergepathd_jobs_datasets", "jobs.datasets", "Datasets currently stored in the spill directory."),
	promtext.Gauge("mergepathd_jobs_dataset_bytes", "jobs.dataset_bytes", "Bytes of dataset payload currently on disk."),
	promtext.Gauge("mergepathd_jobs_memory_records", "jobs.memory_records", "Per-job in-memory budget in records (the external sort's M)."),
	promtext.Counter("mergepathd_jobs_block_reads_total", "jobs.block_reads_total", "External-sort block reads accumulated across finished jobs."),
	promtext.Counter("mergepathd_jobs_block_writes_total", "jobs.block_writes_total", "External-sort block writes accumulated across finished jobs."),
	promtext.Counter("mergepathd_jobs_gc_sweeps_total", "jobs.gc_sweeps_total", "TTL garbage-collection passes."),
	promtext.Counter("mergepathd_jobs_files_removed_total", "jobs.files_removed_total", "Spill files deleted (GC, cancel cleanup, dataset deletion)."),
	promtext.Counter("mergepathd_jobs_result_aborts_total", "jobs.result_aborts_total", "Job result streams that died mid-body (client disconnect or read failure)."),

	// Durability: write-ahead journal, fsync discipline, restart
	// recovery and checksum verdicts (docs/DURABILITY.md).
	promtext.Gauge("mergepathd_jobs_journal_enabled", "jobs.durability.journal_enabled", "1 when the write-ahead manifest journal is active (-journal with a real -spill-dir)."),
	promtext.Gauge("mergepathd_jobs_fsync_policy", "jobs.durability.fsync_policy", "Configured fsync policy, one-hot: 1 on the series matching -fsync-policy.").Hot("policy", "always", "state", "never"),
	promtext.Counter("mergepathd_jobs_journal_appends_total", "jobs.durability.journal_appends_total", "Records appended to the write-ahead manifest journal."),
	promtext.Counter("mergepathd_jobs_journal_replayed_total", "jobs.durability.journal_replayed_total", "Journal records replayed by the startup recovery pass."),
	promtext.Counter("mergepathd_jobs_fsyncs_total", "jobs.durability.fsyncs_total", "fsync calls issued by the jobs subsystem (journal, data seals, directory)."),
	promtext.Counter("mergepathd_jobs_recovered_datasets_total", "jobs.durability.recovered_datasets_total", "Datasets re-registered intact by the startup recovery pass."),
	promtext.Counter("mergepathd_jobs_recovered_results_total", "jobs.durability.recovered_results_total", "Done jobs whose results survived restart and were re-registered."),
	promtext.Counter("mergepathd_jobs_recovered_failed_total", "jobs.durability.recovered_failed_total", "In-flight jobs marked failed(restart) by the recovery pass."),
	promtext.Counter("mergepathd_jobs_orphans_removed_total", "jobs.durability.orphans_removed_total", "Unaccounted spill files removed by the recovery pass."),
	promtext.Counter("mergepathd_jobs_corruption_detected_total", "jobs.durability.corruption_detected_total", "Checksum and integrity failures detected (corruption is failed loudly, never streamed)."),
}, RequestMetricDescs("mergepathd", "Per-request lifecycle stage timings (partition/merge are cumulative worker time, the rest wall time).")...)

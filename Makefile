# Convenience targets for the mergepath reproduction.

GO ?= go

.PHONY: all build vet fmt-check test race verify cover bench bench-kway experiments fmt serve loadtest loadtest-wire chaos soak lint-docs fuzz-wire fuzz-sort fuzz-kway kway-diff spawn-check cluster cluster-quick jobs-soak jobs-soak-quick restart-quick restart-soak corrupt-check be-check

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing every file gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race: vet
	$(GO) test -race ./internal/core ./internal/psort ./internal/spm \
		./internal/kway ./internal/setops ./internal/sched ./internal/baseline \
		./internal/server ./internal/batch ./internal/stats ./internal/fault \
		./internal/overload ./internal/resilience ./internal/router \
		./internal/jobs ./internal/extsort ./internal/wire ./internal/lebytes

# Godoc audit: every exported identifier in the service-facing packages
# must carry a doc comment (see cmd/lintdocs). Fails listing each gap.
lint-docs:
	$(GO) run ./cmd/lintdocs ./internal/server ./internal/core ./internal/psort \
		./internal/batch ./internal/stats ./internal/overload \
		./internal/resilience ./internal/router ./internal/promtext \
		./internal/jobs ./internal/extsort ./internal/wire ./internal/lebytes \
		./internal/kway ./internal/fault ./cmd/mergerouter

# Quick k-way differential: every strategy (auto, heap, co-rank) must be
# byte-identical to the HeapMerge baseline across k x sizes x
# duplicate densities, and the co-rank cuts must satisfy their
# invariants (sum to rank, pairwise order, monotone windows). See
# docs/KWAY.md for the algorithm these tests pin.
kway-diff:
	$(GO) test -run 'TestMergeIntoMatchesHeap|TestMergeIntoSignedZeroTies|TestCoRank' -count=1 ./internal/kway

# Fan-out gate: core.Fork (internal/core/fork.go) is the one place the
# compute kernels start goroutines, so panic relay and any later worker
# pool live in one function. Fails listing every go statement in a
# non-test file of core, kway, psort, setops, spm or batch outside it.
SPAWN_PKGS = core kway psort setops spm batch
spawn-check:
	@out=$$(for p in $(SPAWN_PKGS); do ls internal/$$p/*.go; done | grep -v '_test\.go$$' | \
		grep -v '^internal/core/fork\.go$$' | \
		xargs grep -nE '(^|[{;])[[:space:]]*go[[:space:]]+[A-Za-z_(]'); \
	if [ -n "$$out" ]; then echo "go statement outside core.Fork:"; echo "$$out"; exit 1; fi

# Short coverage-guided fuzz of the binary frame decoder: truncated,
# oversized and corrupt frames must error cleanly (no panic, no
# over-allocation), and every accepted frame must re-encode to the
# exact input bytes (canonical encoding). The corpus seeds live in the
# test; 10 seconds is enough to walk every header-validation branch.
fuzz-wire:
	$(GO) test -run FuzzDecode -fuzz FuzzDecode -fuzztime 10s ./internal/wire

# Short coverage-guided fuzz of psort's int64 radix leaf: fuzz bytes
# become int64 keys tiled until every run reaches the radix cutoff, and
# the sort must equal slices.Sort for any key bits and worker count.
fuzz-sort:
	$(GO) test -run FuzzSortInt64 -fuzz FuzzSortInt64 -fuzztime 10s ./internal/psort

# Short coverage-guided fuzz of the k-way merged output: fuzz bytes
# become 1..33 sorted runs over a small domain (ties and long runs of
# one list), and every strategy must equal HeapMerge byte for byte at a
# seeded worker count, for int64 and for float64 runs mixing -0 and +0.
fuzz-kway:
	$(GO) test -run FuzzMergeInto -fuzz FuzzMergeInto -fuzztime 10s ./internal/kway

# Big-endian build gate: type-check and vet the whole module for s390x,
# so the portable per-element codec path (internal/lebytes callers in
# wire and extsort) keeps compiling and vetting on a host that is
# little-endian. It runs offline from the local toolchain; it cannot
# run the tests, which would need a big-endian machine or emulator.
be-check:
	GOARCH=s390x $(GO) vet ./...

# Full pre-merge gate: build, vet, the gofmt check (fmt-check), unit
# tests, godoc audit, the fan-out gate (spawn-check), race suite (which includes the fault-injection
# lifecycle tests in internal/server and internal/fault), short fuzz
# passes over the wire decoder, the psort radix leaf and the k-way
# merged output, a chaos pass against a live in-process daemon, the
# in-process cluster soak (3 backends + router, one backend
# faulted, under -race), the quick jobs soak (concurrent submits +
# cancels + GC under fault injection, -race), the quick in-process
# restart-recovery drill (journal replay, orphan GC, corruption
# detection, -race) and the big-endian vet (be-check). The longer
# overload/breaker soak is its own target (`make soak`); the
# multi-process cluster is `make cluster`; the extended jobs soak is
# `make jobs-soak`; the real SIGKILL restart soak is `make restart-soak`.
verify: build vet fmt-check test lint-docs kway-diff spawn-check race fuzz-wire fuzz-sort fuzz-kway chaos cluster-quick jobs-soak-quick restart-quick be-check

cover:
	$(GO) test -cover ./...

# Every benchmark in the module, BenchmarkCodec (internal/wire: decode
# and encode ns/elem on the zero-copy and portable paths) among them.
bench:
	$(GO) test -bench=. -benchmem ./...

# K-way strategy comparison (heap vs co-rank at k=4/16/64 over a fixed
# 1M-element output), the int64 window kernel in ns/elem at the served
# shapes and the co-rank partitioner in isolation.
bench-kway:
	$(GO) test -bench 'BenchmarkKWayStrategies|BenchmarkKWayKernel|BenchmarkCoRankSearch' -benchmem ./internal/kway

# Regenerate every table of EXPERIMENTS.md (laptop-scale sizes).
experiments:
	$(GO) run ./cmd/mergebench -experiment all -sizes 1M,4M -reps 3
	$(GO) run ./cmd/sortbench -experiment all -sizes 1M
	$(GO) run ./cmd/cachesim -experiment all -elements 65536
	$(GO) run ./cmd/crewcheck -elements 65536

fmt:
	gofmt -w .

# Run the merge/sort service daemon on :8080.
serve:
	$(GO) run ./cmd/mergepathd -addr :8080

# Closed-loop load test against an in-process daemon; the JSON summary is
# the service-throughput benchmark artifact tracked across PRs. The run
# deliberately overdrives a tight overload target through the resilient
# client so the artifact records the whole control loop: degradation
# timeline, 429s with honored Retry-After, hedges, breaker cycles (X14).
loadtest:
	$(GO) run ./cmd/mergeload -duration 5s -conc 64 -size 4096 -dist skew \
		-resilient -hedge-after 25ms -overload-target 2ms -overload-interval 50ms \
		-json BENCH_server.json

# The loadtest run plus the wire-format decode comparison: the same 1M
# element merges driven as JSON and as binary frames against a clean
# in-process daemon, recorded in BENCH_server.json's `wire` section.
# The protocol's reason to exist is decode_p99_ratio well under 1/3.
loadtest-wire:
	$(GO) run ./cmd/mergeload -duration 5s -conc 64 -size 4096 -dist skew \
		-resilient -hedge-after 25ms -overload-target 2ms -overload-interval 50ms \
		-wire -wire-size 1048576 \
		-json BENCH_server.json

# Chaos pass: full load run with fault injection (panics, errors, latency)
# against an in-process daemon; fails if the daemon dies or no panic was
# actually recovered.
chaos:
	$(GO) run ./cmd/mergeload -chaos -duration 3s -conc 16 -dist skew

# In-process router cluster soak under -race: three real backends (one
# injecting errors into 80% of its merge rounds) behind one router;
# asserts the success rate stays >=95%, every 200 is the exact reference
# merge, and only the faulted backend's breaker opened.
cluster-quick:
	$(GO) test -race -run TestClusterSoak -count=1 ./internal/router

# Multi-process cluster: build real binaries, start three mergepathd
# backends (one with -fault), front them with mergerouter, drive the
# router with mergeload, and assert degradation stayed local. See
# scripts/cluster.sh for knobs (PORT_BASE, DURATION, FAULT_SPEC).
cluster:
	./scripts/cluster.sh

# Jobs subsystem soak under -race: concurrent sortfile submits, cancels
# and TTL GC sweeps against one manager with fault injection (errors,
# panics, latency), asserting no leaked goroutines or spill files and
# balanced overload accounting. The quick variant runs inside `make
# verify`; the long one multiplies the iteration count via the env knob.
jobs-soak-quick:
	$(GO) test -race -run TestJobsSoak -count=1 ./internal/jobs

jobs-soak:
	MERGEPATH_JOBS_SOAK=1 $(GO) test -race -run TestJobsSoak -v -count=1 -timeout 10m ./internal/jobs

# Quick in-process kill-restart drill (runs inside `make verify`): a
# journaled manager finishes a job, a fake crash leaves in-flight
# journal records + orphan files + a torn journal line, and a second
# manager over the same spill dir must recover the dataset and the
# byte-identical result, fail the in-flight job with a restart reason,
# GC the orphans, and detect deliberate corruption. docs/DURABILITY.md.
restart-quick:
	$(GO) test -race -run 'TestRestartRecovery|TestJournalDisabled' -count=1 ./internal/jobs

# Real kill-restart soak: build mergepathd, SIGKILL it mid-job, restart
# on the same -spill-dir, and assert completed results stream
# byte-identical, in-flight jobs surface failed(restart), no orphaned
# temp files remain, and a flipped result byte is detected with
# mergepathd_jobs_corruption_detected_total >= 1. See
# scripts/restart-soak.sh for knobs (PORT, RECORDS).
restart-soak:
	./scripts/restart-soak.sh

# Corruption detection gate: seal a spill file, flip one byte, and
# assert the typed corruption error names the damaged block (plus the
# read-side bit-flip fault op being caught by the verified reader).
corrupt-check:
	$(GO) test -run 'TestCorruptCheck|TestVerifiedReaderCatchesInjectedFlip' -count=1 -v ./internal/extsort

# Overload/resilience soak: 60 seconds of injected latency under -race.
# Drives the full control loop — healthy -> degraded -> shedding with
# computed Retry-After 429s, client breaker open -> half-open -> closed
# after the fault clears — and fails on any wrong merge byte. The same
# test runs for a few seconds in the plain `test`/`race` targets.
soak:
	MERGEPATH_SOAK=60s $(GO) test -race -run TestChaosSoak -v -timeout 10m ./internal/server

// Command mergepathd is the merge-path service daemon: an HTTP/JSON
// server multiplexing concurrent merge/sort/k-way/set-algebra requests
// onto one fixed worker pool with coalesced, globally load-balanced
// batch rounds (see internal/server).
//
// Endpoints: POST /v1/merge /v1/sort /v1/mergek /v1/setops /v1/select;
// the out-of-core dataset/jobs API POST /v1/datasets, POST /v1/jobs,
// GET/DELETE /v1/jobs/{id}, GET /v1/jobs/{id}/result; GET /healthz
// /metrics /metrics/prom. See docs/METRICS.md for the full metric
// reference and README.md for the operator runbook.
//
// Usage:
//
//	mergepathd -addr :8080 -workers 8 -queue 256
//	mergepathd -debug-addr localhost:6060          # pprof sidecar
//	mergepathd -access-log                         # per-request span log
//	mergepathd -fault 'sort:panic=0.05;*:latency=1ms@0.2'   # chaos mode
//	mergepathd -overload-target 10ms                        # overload tuning
//	mergepathd -spill-dir /var/tmp/mp -job-memory 1048576   # out-of-core sort jobs
//	curl -s localhost:8080/v1/merge -d '{"a":[1,3],"b":[2,4]}'
//	curl -s localhost:8080/metrics/prom
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops, queued
// and in-flight work completes, then the process exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mergepath/internal/fault"
	"mergepath/internal/jobs"
	"mergepath/internal/overload"
	"mergepath/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 256, "admission queue depth (full queue sheds with 503)")
		coalesce  = flag.Int("coalesce", 1<<16, "max output elements for the coalescing path")
		maxBody   = flag.Int64("max-body", 8<<20, "request body limit in bytes (413 beyond)")
		timeout   = flag.Duration("timeout", 5*time.Second, "default per-request deadline")
		drainFor  = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
		faultSpec = flag.String("fault", "", `fault injection spec, e.g. "merge:panic=0.01;*:latency=1ms@0.1" (chaos testing; empty = off)`)
		faultSeed = flag.Int64("fault-seed", 1, "fault injection RNG seed")
		debugAddr = flag.String("debug-addr", "", "listen address for the pprof debug server (empty = off); serves /debug/pprof/ only, keep it off public interfaces")
		accessLog = flag.Bool("access-log", false, "log one structured line per request with its ID and per-stage span timings")

		overloadTarget   = flag.Duration("overload-target", 5*time.Millisecond, "CoDel queue-sojourn target; sustained waits above it degrade, then shed with 429")
		overloadInterval = flag.Duration("overload-interval", 100*time.Millisecond, "overload evaluation interval (the window the minimum sojourn is tracked over)")

		spillDir       = flag.String("spill-dir", "", "spill directory for datasets and job files (empty = a private temp dir, removed on exit)")
		jobMemory      = flag.Int("job-memory", 1<<20, "per-job in-memory budget in records: the external sort's M")
		jobConcurrency = flag.Int("job-concurrency", 1, "max jobs executing at once")
		jobQueue       = flag.Int("job-queue", 8, "max jobs waiting to run (full queue sheds with 503)")
		jobTTL         = flag.Duration("job-ttl", 10*time.Minute, "TTL for finished job state/results and idle datasets")
		journal        = flag.Bool("journal", true, "write-ahead manifest journal under -spill-dir for crash recovery (ignored without -spill-dir; docs/DURABILITY.md)")
		fsyncPolicy    = flag.String("fsync-policy", "state", "when to fsync journal and spill files: always, state or never (docs/DURABILITY.md)")
	)
	flag.Parse()

	fsync, err := jobs.ParseFsyncPolicy(*fsyncPolicy)
	if err != nil {
		log.Fatalf("-fsync-policy: %v", err)
	}

	var inj *fault.Injector
	if *faultSpec != "" {
		var err error
		inj, err = fault.Parse(*faultSpec, *faultSeed)
		if err != nil {
			log.Fatalf("-fault: %v", err)
		}
		log.Printf("CHAOS MODE: fault injection active (%s)", *faultSpec)
	}

	s := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CoalesceLimit:  *coalesce,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *timeout,
		Overload: overload.Config{
			Target:   *overloadTarget,
			Interval: *overloadInterval,
		},
		Fault:     inj,
		AccessLog: *accessLog,
		Jobs: jobs.Config{
			Dir:            *spillDir,
			MemoryRecords:  *jobMemory,
			MaxConcurrent:  *jobConcurrency,
			MaxQueued:      *jobQueue,
			TTL:            *jobTTL,
			DisableJournal: !*journal,
			Fsync:          fsync,
		},
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s}

	// The pprof sidecar lives on its own listener so profiling can stay
	// bound to localhost while the service listens publicly. Handlers
	// are mounted on a private mux — never the service mux, never
	// http.DefaultServeMux — so no deployment accidentally exposes it.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("debug server (pprof) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	journalState := "off"
	if *spillDir != "" && *journal {
		journalState = "on"
	}
	log.Printf("mergepathd listening on %s (workers=%d queue=%d spill=%s job-memory=%d journal=%s fsync=%s)",
		*addr, s.Workers(), *queue, s.Jobs().Dir(), s.Jobs().MemoryRecords(), journalState, fsync)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("signal received; draining (budget %v)", *drainFor)
	dctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := s.Drain(dctx); err != nil {
		log.Printf("pool drain: %v", err)
	}
	// Final metrics summary so operators see what the run served.
	snap := s.Snapshot()
	buf, _ := json.Marshal(snap)
	fmt.Fprintf(os.Stderr, "mergepathd: drained cleanly; final metrics: %s\n", buf)
}

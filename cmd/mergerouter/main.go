// Command mergerouter is the scatter-gather routing tier: one HTTP
// front door over N mergepathd backends (see internal/router). Small
// requests are routed whole with rendezvous hashing plus least-loaded
// selection over each backend's polled /healthz state; large merges are
// split with the paper's diagonal co-ranking cut, served by independent
// backends, and each result copied into its slice of a response
// byte-identical to a single node's. Each backend is driven through its own resilient client
// (retries, retry budget, Retry-After, per-endpoint circuit breakers),
// so one faulty or browned-out node diverts traffic instead of failing
// requests.
//
// Endpoints mirror mergepathd: POST /v1/merge /v1/sort /v1/mergek
// /v1/setops /v1/select; GET /healthz /metrics /metrics/prom (metric
// reference in docs/METRICS.md).
//
// Usage:
//
//	mergerouter -addr :8090 -backends http://n1:8080,http://n2:8080,http://n3:8080
//	mergerouter -scatter-threshold 131072 -max-scatter 8
//	mergerouter -access-log                # per-request route/scatter span log
//	curl -s localhost:8090/v1/merge -d '{"a":[1,3],"b":[2,4]}'
//	curl -s localhost:8090/metrics/prom
//
// SIGINT/SIGTERM stops the listener gracefully, finishes in-flight
// requests, then exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mergepath/internal/resilience"
	"mergepath/internal/router"
)

func main() {
	var (
		addr      = flag.String("addr", ":8090", "listen address")
		backends  = flag.String("backends", "", "comma-separated mergepathd base URLs (required)")
		threshold = flag.Int("scatter-threshold", 1<<17, "smallest merge (total elements) split across backends instead of routed whole")
		maxScat   = flag.Int("max-scatter", 8, "scatter fan-out cap (windows per request)")
		interval  = flag.Duration("health-interval", 250*time.Millisecond, "backend /healthz poll period")
		timeout   = flag.Duration("timeout", 15*time.Second, "end-to-end budget per routed request, failover included")
		maxBody   = flag.Int64("max-body", 32<<20, "request body limit in bytes (413 beyond)")
		retries   = flag.Int("retries", 1, "retries per backend before failing over to another")
		hedge     = flag.Duration("hedge-after", 0, "duplicate a slow backend request after this delay (0 = off)")
		drainFor  = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
		accessLog = flag.Bool("access-log", false, "log one structured line per request with its ID and per-stage span timings")
	)
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatal("-backends is required: comma-separated mergepathd base URLs")
	}

	rt, err := router.New(router.Config{
		Backends:         urls,
		HealthInterval:   *interval,
		ScatterThreshold: *threshold,
		MaxScatter:       *maxScat,
		MaxBodyBytes:     *maxBody,
		RequestTimeout:   *timeout,
		Resilience: resilience.Config{
			MaxRetries: *retries,
			HedgeAfter: *hedge,
		},
		AccessLog: *accessLog,
	})
	if err != nil {
		log.Fatalf("router: %v", err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: rt}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("mergerouter listening on %s (backends=%d scatter-threshold=%d max-scatter=%d)",
		*addr, len(urls), *threshold, *maxScat)

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
	rt.Close()
	snap := rt.Snapshot()
	buf, _ := json.Marshal(snap)
	fmt.Fprintf(os.Stderr, "mergerouter: drained cleanly; final metrics: %s\n", buf)
}

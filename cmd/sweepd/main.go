// Command sweepd serves steady-state sweep experiments over HTTP with a
// determinism-backed result cache: every simulation here is bit-identical
// given (config, seed), so a cached point is the exact result, keyed on the
// engine's physics digest so a code change can never serve stale physics.
//
//	sweepd -addr :8080 -disk /var/tmp/sweepd
//
//	curl -s localhost:8080/sweep -d '{"h":3,"routing":"OFAR","pattern":"ADV+3",
//	  "loads":[0.1,0.3,0.5],"warmup":3000,"measure":5000}'
//
// The response is NDJSON: first every cached point (source "cache"), then
// each miss as it completes ("computed", or "coalesced" when it joined another
// request's simulation), then a summary line. /metrics exposes
// hit rate, queue depth, in-flight simulations and point-latency quantiles;
// /healthz reports the engine digest. Overload answers 429 + Retry-After
// instead of queueing without bound.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ofar/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		cacheN   = flag.Int("cache", 4096, "in-memory result LRU capacity (points)")
		disk     = flag.String("disk", "", "directory for persistent result + warm-snapshot caches (empty = memory only)")
		sims     = flag.Int("sims", 0, "max concurrently executing simulations (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 256, "max admitted-but-not-running points before requests are shed with 429")
		p99bound = flag.Duration("p99bound", 0, "shed requests whose projected wait exceeds this bound (0 = queue-depth shedding only)")
		maxLoads = flag.Int("maxloads", 64, "max points per request")
	)
	flag.Parse()

	srv, err := service.New(service.Options{
		CacheEntries: *cacheN,
		DiskDir:      *disk,
		Sims:         *sims,
		MaxQueue:     *queue,
		P99Bound:     *p99bound,
		MaxLoads:     *maxLoads,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		os.Exit(1)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eff := srv.Options() // the counts the server runs with, defaults applied
	log.Printf("sweepd: listening on %s (engine %016x, sims=%d of GOMAXPROCS=%d, queue=%d, cache=%d, disk=%q)",
		*addr, srv.EngineDigest(), eff.Sims, runtime.GOMAXPROCS(0), eff.MaxQueue, eff.CacheEntries, *disk)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("sweepd: %v", err)
	case <-ctx.Done():
	}
	log.Printf("sweepd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("sweepd: shutdown: %v", err)
	}
	srv.Close()
}

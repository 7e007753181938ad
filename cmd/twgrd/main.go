// twgrd is the long-running routing daemon: an HTTP/JSON front end over
// the parallel TWGR pipeline with an admission-controlled worker pool, a
// result cache, per-stage progress streaming, and graceful drain.
//
// Usage:
//
//	twgrd -addr :8745                          # defaults: 4 workers, queue 64
//	twgrd -addr :8745 -jobs 8 -queue 256 -cache 1024
//	twgrd -algo hybrid -p 4 -timeout 30s       # per-job defaults (shared flag set with twgr)
//
// Submit a job (see internal/service for the envelope format):
//
//	curl -s localhost:8745/v1/jobs -d '{"proto":"twgrd/1","kind":"job.submit",...}'
//
// SIGTERM/SIGINT starts a graceful drain: new computations are rejected
// with 503, in-flight jobs finish and flush, then the process exits. A
// second signal aborts immediately, cancelling in-flight jobs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parroute/internal/runcfg"
	"parroute/internal/service"
)

func main() {
	// Per-job default knobs come from the same flag table as cmd/twgr
	// (internal/runcfg), so the two binaries cannot drift; a job spec
	// field left zero inherits the flag value.
	defaults := runcfg.Default()
	runcfg.AddFlags(flag.CommandLine, &defaults)
	var (
		addr    = flag.String("addr", "localhost:8745", "listen address")
		jobs    = flag.Int("jobs", 4, "worker-pool size (concurrent routing jobs)")
		queue   = flag.Int("queue", 64, "admission queue depth; a full queue rejects with 429")
		cache   = flag.Int("cache", 256, "result-cache entries")
		genSeed = flag.Uint64("gen-seed", 7, "preset generation seed jobs inherit by default")
		grace   = flag.Duration("grace", 30*time.Second, "drain grace period after SIGTERM before in-flight jobs are cancelled")
	)
	flag.Parse()

	if err := defaults.Validate(); err != nil {
		fatalf("%v", err)
	}

	srv := service.New(service.Config{
		Workers:      *jobs,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		Defaults:     defaults,
		GenSeed:      *genSeed,
	})

	// Worker-pool lifetime: poolCtx outlives the first SIGTERM so the
	// drain can finish in-flight jobs; it is cancelled when the drain
	// completes, times out, or a second signal demands a hard stop.
	poolCtx, stopPool := context.WithCancel(context.Background())
	defer stopPool()
	srv.Start(poolCtx)

	httpSrv := newHTTPServer(*addr, srv.Handler())

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stopSignals()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("twgrd: listening on %s (%d job workers, queue %d, cache %d)\n", *addr, *jobs, *queue, *cache)

	select {
	case err := <-errc:
		fatalf("serve: %v", err)
	case <-sigCtx.Done():
	}

	// Graceful drain: stop admitting, let the pool flush, then stop.
	fmt.Println("twgrd: draining (in-flight jobs will finish; signal again to abort)")
	stopSignals() // a second signal now kills the process the default way
	hardStop, stopHard := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stopHard()

	select {
	case <-srv.Drain():
		fmt.Println("twgrd: drained cleanly")
	case <-time.After(*grace):
		fmt.Println("twgrd: drain grace period expired, cancelling in-flight jobs")
	case <-hardStop.Done():
		fmt.Println("twgrd: second signal, cancelling in-flight jobs")
	}
	stopPool()
	srv.Wait()

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("shutdown: %v", err)
	}
	st := srv.Stats()
	fmt.Printf("twgrd: exit — %d submitted, %d completed, %d cache hits, %d rejected overload\n",
		st.Submitted, st.Completed, st.CacheHits, st.RejectedOverload)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "twgrd: "+format+"\n", args...)
	os.Exit(1)
}

// Bounds on how long a client may take to deliver a request. A peer that
// connects and stalls would otherwise hold its connection (and goroutine)
// forever.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second // whole request: a circuit body can be megabytes
	idleTimeout       = 2 * time.Minute  // keep-alive connections between requests
)

// newHTTPServer builds the daemon's listener-side server. There is
// deliberately no WriteTimeout: it would cut SSE progress streams and the
// replies of long routing jobs, whose duration the client chose.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Soak tier: thousands of concurrent jobs through the real HTTP surface
// under mixed presets, algorithms, priorities, cache-hit storms,
// mid-flight disconnects and SSE consumers — then a full accounting
// audit, per-key byte parity against one-shot runs, a graceful drain,
// and a goroutine-leak check. Run under -race (scripts/check.sh does);
// SOAK_JOBS scales the job count.
package service_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"parroute/internal/metrics"
	"parroute/internal/parallel"
	"parroute/internal/runcfg"
	"parroute/internal/service"
	"parroute/internal/service/loadgen"
)

// soakJobs is the soak volume: 1000 by default (the acceptance floor),
// scalable through SOAK_JOBS for longer runs.
func soakJobs(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("SOAK_JOBS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("SOAK_JOBS=%q is not a positive integer", v)
		}
		return n
	}
	return 1000
}

// settleGoroutines polls the goroutine count back to baseline (plus
// slack), dumping stacks on failure. A soak that leaks even one worker,
// waiter, or stream pump per thousand jobs fails here.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: %d running, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// oneShotBytes recomputes a daemon cache key's result the way a single
// `twgr` invocation would — fresh process-local run, no daemon, no
// cache — and returns the canonical bytes. The key grammar is
// "preset:<name>@<genseed>|<algo>|p<procs>|s<seed>|<netpart>".
func oneShotBytes(t *testing.T, key string) []byte {
	t.Helper()
	parts := strings.Split(key, "|")
	if len(parts) != 5 {
		t.Fatalf("unparseable job key %q", key)
	}
	circuitID, algo, netpart := parts[0], parts[1], parts[4]
	name, genStr, ok := strings.Cut(strings.TrimPrefix(circuitID, "preset:"), "@")
	if !ok || !strings.HasPrefix(circuitID, "preset:") {
		t.Fatalf("job key %q does not name a preset circuit", key)
	}
	genSeed, err := strconv.ParseUint(genStr, 10, 64)
	if err != nil {
		t.Fatalf("gen seed in key %q: %v", key, err)
	}
	procs, err := strconv.Atoi(strings.TrimPrefix(parts[2], "p"))
	if err != nil {
		t.Fatalf("procs in key %q: %v", key, err)
	}
	seed, err := strconv.ParseUint(strings.TrimPrefix(parts[3], "s"), 10, 64)
	if err != nil {
		t.Fatalf("seed in key %q: %v", key, err)
	}

	c, err := runcfg.LoadPreset(name, genSeed)
	if err != nil {
		t.Fatalf("LoadPreset(%s): %v", name, err)
	}
	run := runcfg.Default()
	run.Algo = algo
	run.Procs = procs
	run.Seed = seed
	run.NetPart = netpart
	opts, err := run.Options()
	if err != nil {
		t.Fatalf("Options for key %q: %v", key, err)
	}
	var res *metrics.Result
	if run.Serial() {
		res, err = parallel.RunBaseline(context.Background(), c, opts)
	} else {
		res, err = parallel.Run(context.Background(), c, opts)
	}
	if err != nil {
		t.Fatalf("one-shot route for key %q: %v", key, err)
	}
	b, err := service.CanonicalResult(res)
	if err != nil {
		t.Fatalf("CanonicalResult for key %q: %v", key, err)
	}
	return b
}

func TestServiceSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := service.New(service.Config{Workers: 8, QueueDepth: 256, CacheEntries: 64})
	poolCtx, cancelPool := context.WithCancel(context.Background())
	srv.Start(poolCtx)
	ts := httptest.NewServer(srv.Handler())

	profile := loadgen.Profile{
		Jobs:        soakJobs(t),
		Concurrency: 32,
		Presets:     []string{"tiny", "small", "primary2"},
		Algos:       []string{"serial", "rowwise", "netwise", "hybrid"},
		Procs:       []int{1, 2, 4},
		Seeds:       []uint64{1, 2}, // a small pool: most jobs collide into cache hits
		Priorities:  []int{0, 1, 5},
		CancelEvery: 7,
		StreamEvery: 5,
		Seed:        42,
	}
	ctx, cancelLoad := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancelLoad()
	rep, err := loadgen.Run(ctx, ts.URL, profile)
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}

	// No dropped jobs: every submission has exactly one recorded outcome
	// and nothing landed in the unexpected-error bucket.
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d submitted, %d completed (%d cache hits), %d cancelled, %d overload, %d draining, %d progress events",
		rep.Submitted.Load(), rep.Completed.Load(), rep.CacheHits.Load(), rep.Cancelled.Load(),
		rep.RejectedOverload.Load(), rep.RejectedDraining.Load(), rep.ProgressEvents.Load())
	if rep.Completed.Load() == 0 {
		t.Fatal("soak completed no jobs")
	}
	if rep.CacheHits.Load() == 0 {
		t.Fatal("soak produced no cache hits despite the colliding seed pool")
	}
	if rep.Cancelled.Load() == 0 {
		t.Fatal("soak recorded no cancellations despite CancelEvery")
	}
	if rep.ProgressEvents.Load() == 0 {
		t.Fatal("soak consumed no SSE progress events despite StreamEvery")
	}

	// Graceful drain: whatever is still in flight server-side (abandoned
	// jobs included) finishes, and the daemon's own books balance.
	select {
	case <-srv.Drain():
	case <-time.After(2 * time.Minute):
		t.Fatal("drain did not complete")
	}
	st := srv.Stats()
	if st.Failed != 0 {
		t.Fatalf("daemon recorded %d failed jobs", st.Failed)
	}
	if st.QueueDepth != 0 || st.Running != 0 {
		t.Fatalf("post-drain stats = %+v, want an idle pool", st)
	}

	// Byte parity: every key the soak observed must match a fresh
	// one-shot computation, byte for byte.
	results := rep.Results()
	if len(results) == 0 {
		t.Fatal("soak observed no per-key results")
	}
	t.Logf("soak: verifying one-shot parity for %d unique keys", len(results))
	for key, got := range results {
		if want := oneShotBytes(t, key); !bytes.Equal(got, want) {
			t.Errorf("key %s: daemon bytes differ from one-shot bytes\n daemon:  %s\n oneshot: %s", key, got, want)
		}
	}

	service.StopPool(t, srv, cancelPool)
	ts.Close()
	settleGoroutines(t, baseline)
}

// TestOverloadBurstHTTP: a burst of distinct jobs against a 2-deep queue
// with no pool running yields exactly queue-depth admissions and 429s
// with Retry-After for the rest — and the daemon is not wedged: once the
// pool starts, the admitted jobs complete normally.
func TestOverloadBurstHTTP(t *testing.T) {
	const burst = 10
	const depth = 2
	srv := service.New(service.Config{Workers: 1, QueueDepth: depth, CacheEntries: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type outcome struct {
		status     int
		retryAfter string
	}
	outcomes := make(chan outcome, burst)
	var wg sync.WaitGroup
	wg.Add(burst)
	for i := 0; i < burst; i++ {
		go func(i int) {
			defer wg.Done()
			body, err := service.Encode(service.KindJob, service.JobSpec{Preset: "tiny", Seed: uint64(i + 1)})
			if err != nil {
				t.Errorf("Encode: %v", err)
				outcomes <- outcome{}
				return
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				outcomes <- outcome{}
				return
			}
			defer resp.Body.Close()
			outcomes <- outcome{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		}(i)
	}

	// With no pool draining the queue, exactly `burst - depth` requests
	// bounce; the admitted ones block until the pool starts.
	var rejected int
	for rejected < burst-depth {
		select {
		case o := <-outcomes:
			if o.status != http.StatusTooManyRequests {
				t.Fatalf("pre-pool response status = %d, want 429", o.status)
			}
			if o.retryAfter == "" {
				t.Fatal("429 without a Retry-After header")
			}
			rejected++
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d of %d overload rejections arrived", rejected, burst-depth)
		}
	}

	poolCtx, cancel := context.WithCancel(context.Background())
	srv.Start(poolCtx)
	defer service.StopPool(t, srv, cancel)

	for admitted := 0; admitted < depth; admitted++ {
		select {
		case o := <-outcomes:
			if o.status != http.StatusOK {
				t.Fatalf("admitted job status = %d, want 200", o.status)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("admitted jobs did not complete after the pool started")
		}
	}
	wg.Wait()

	st := srv.Stats()
	if st.RejectedOverload != burst-depth || st.Completed != depth || st.Failed != 0 {
		t.Fatalf("stats = %+v, want %d rejectedOverload, %d completed", st, burst-depth, depth)
	}

	// Not wedged: a fresh submission routes fine.
	body, err := service.Encode(service.KindJob, service.JobSpec{Preset: "tiny", Seed: 99})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST after burst: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst submission status = %d, want 200", resp.StatusCode)
	}
}

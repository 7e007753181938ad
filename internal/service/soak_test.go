// Soak tier: thousands of concurrent jobs through the real HTTP surface
// under mixed presets, algorithms, priorities, cache-hit storms,
// mid-flight disconnects and SSE consumers — then a full accounting
// audit, per-key byte parity against one-shot runs, a graceful drain,
// and a goroutine-leak check. Run under -race (scripts/check.sh does);
// SOAK_JOBS scales the job count.
package service_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parroute/internal/metrics"
	"parroute/internal/parallel"
	"parroute/internal/rng"
	"parroute/internal/runcfg"
	"parroute/internal/service"
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

	ctx, cancelLoad := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancelLoad()
	load := &soakClient{url: ts.URL, byKey: map[string][]byte{}}
	outcomes := load.run(ctx, t, soakJobs(t))

	// No dropped jobs: every submission has exactly one recorded outcome,
	// and none landed among the unexpected errors.
	var count [soakErrored + 1]int
	for n, o := range outcomes {
		if o == 0 {
			t.Fatalf("job %d has no outcome (load run cut short: %v)", n, ctx.Err())
		}
		count[o]++
	}
	t.Logf("soak: %d submitted, %d completed (%d cache hits), %d cancelled, %d overload, %d draining, %d progress events",
		len(outcomes), count[soakCompleted]+count[soakCacheHit], count[soakCacheHit], count[soakCancelled],
		count[soakOverload], count[soakDraining], load.progress.Load())
	if count[soakErrored] != 0 {
		t.Fatalf("%d jobs failed unexpectedly", count[soakErrored])
	}
	if count[soakCompleted]+count[soakCacheHit] == 0 {
		t.Fatal("soak completed no jobs")
	}
	if count[soakCacheHit] == 0 {
		t.Fatal("soak produced no cache hits despite the colliding seed pool")
	}
	if count[soakCancelled] == 0 {
		t.Fatal("soak recorded no cancellations despite cancelEvery")
	}
	if load.progress.Load() == 0 {
		t.Fatal("soak consumed no SSE progress events despite streamEvery")
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
	t.Logf("daemon: %d submitted, %d completed, %d cancelled", st.Submitted, st.Completed, st.Cancelled)
	if st.Cancelled == 0 {
		t.Fatal("the daemon cancelled no job despite cancelEvery's disconnects")
	}

	// Byte parity: every key the soak observed must match a fresh
	// one-shot computation, byte for byte.
	if len(load.byKey) == 0 {
		t.Fatal("soak observed no per-key results")
	}
	t.Logf("soak: verifying one-shot parity for %d unique keys", len(load.byKey))
	for key, got := range load.byKey {
		if want := oneShotBytes(t, key); !bytes.Equal(got, want) {
			t.Errorf("key %s: daemon bytes differ from one-shot bytes\n daemon:  %s\n oneshot: %s", key, got, want)
		}
	}

	service.StopPool(t, srv, cancelPool)
	ts.Close()
	settleGoroutines(t, baseline)
}

// The soak mix. Job n's spec is drawn from rng.New(42 + n·φ64) in
// the order preset, algo, procs, seed, priority, so every run submits the
// same jobs: scheduling only decides which client carries which.
var (
	soakPresets    = []string{"tiny", "small", "primary2"}
	soakAlgos      = []string{"serial", "rowwise", "netwise", "hybrid"}
	soakProcs      = []int{1, 2, 4}
	soakSeeds      = []uint64{1, 2} // a small pool: most jobs collide into cache hits
	soakPriorities = []int{0, 1, 5}
)

const (
	soakClients = 32
	cancelEvery = 7 // job n disconnects mid-flight when n%7 == 1
	streamEvery = 5 // job n consumes SSE progress when n%5 == 0
)

func soakSpec(n int) service.JobSpec {
	r := rng.New(42 + uint64(n)*0x9e3779b97f4a7c15)
	return service.JobSpec{
		Preset:   soakPresets[r.Intn(len(soakPresets))],
		Algo:     soakAlgos[r.Intn(len(soakAlgos))],
		Procs:    soakProcs[r.Intn(len(soakProcs))],
		Seed:     soakSeeds[r.Intn(len(soakSeeds))],
		Priority: soakPriorities[r.Intn(len(soakPriorities))],
	}
}

// soakOutcome is how one job ended; 0 is none yet. A cancelled job may
// still complete server-side: other waiters, or the cache, keep its bytes.
type soakOutcome int

const (
	soakCompleted soakOutcome = iota + 1
	soakCacheHit              // completed, flagged cacheHit
	soakCancelled             // client disconnect or server-reported cancellation
	soakOverload              // 429
	soakDraining              // 503 draining
	soakErrored               // anything else
)

// soakClient drives the daemon at url and keeps the first result bytes
// seen per cache key, which every later response for the key must equal.
type soakClient struct {
	url      string
	client   http.Client
	progress atomic.Int64 // SSE progress events consumed

	mu    sync.Mutex
	byKey map[string][]byte
}

// run submits jobs 0..jobs-1 from soakClients goroutines and returns each
// job's outcome, reporting unexpected failures on t.
func (s *soakClient) run(ctx context.Context, t *testing.T, jobs int) []soakOutcome {
	outcomes := make([]soakOutcome, jobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range soakClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int(next.Add(1)) - 1; n < jobs && ctx.Err() == nil; n = int(next.Add(1)) - 1 {
				o, err := s.job(ctx, n)
				if err != nil {
					t.Errorf("job %d (%+v): %v", n, soakSpec(n), err)
					o = soakErrored
				}
				outcomes[n] = o
			}
		}()
	}
	wg.Wait()
	return outcomes
}

// job submits job n and reads how it ended.
func (s *soakClient) job(ctx context.Context, n int) (soakOutcome, error) {
	stream, cancelled := n%streamEvery == 0, n%cancelEvery == 1
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if cancelled && !stream {
		// Cancelled once the request is on the wire: the daemon holds the
		// job when its client leaves.
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{WroteRequest: func(httptrace.WroteRequestInfo) { cancel() }})
	}
	body, err := service.Encode(service.KindJob, soakSpec(n))
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if stream {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := s.client.Do(req)
	if errors.Is(err, context.Canceled) {
		return soakCancelled, nil
	} else if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if stream {
		return s.stream(resp, cancelled, cancel)
	}
	data, err := io.ReadAll(resp.Body)
	if errors.Is(err, context.Canceled) {
		return soakCancelled, nil
	} else if err != nil {
		return 0, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return s.envelope(data)
	case http.StatusTooManyRequests:
		return soakOverload, nil
	case http.StatusServiceUnavailable:
		// A drain that cancels an in-flight job answers 503 too.
		if o, _ := s.envelope(data); o == soakCancelled {
			return o, nil
		}
		return soakDraining, nil
	}
	return 0, fmt.Errorf("status %d: %s", resp.StatusCode, data)
}

// stream reads an SSE response: progress events count, and the result or
// error event decides the outcome. A cancelling client disconnects after
// the first progress event, with its job provably started.
func (s *soakClient) stream(resp *http.Response, cancelled bool, cancel context.CancelFunc) (soakOutcome, error) {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 64<<20)
	var kind string
	for sc.Scan() {
		if k, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			kind = k
			continue
		}
		switch data, ok := strings.CutPrefix(sc.Text(), "data: "); {
		case ok && kind == service.KindProgress:
			s.progress.Add(1)
			if cancelled {
				cancel()
				return soakCancelled, nil
			}
		case ok && (kind == service.KindResult || kind == service.KindError):
			return s.envelope([]byte(data))
		}
	}
	// Ended with no terminal event: a disconnect raced the result.
	if cancelled || errors.Is(sc.Err(), context.Canceled) {
		return soakCancelled, nil
	}
	return 0, errors.New("sse stream ended without a result or error event")
}

// envelope reads a job.result, checking its bytes against every other
// response for its key, or a job's error, which is a cancellation or
// unexpected.
func (s *soakClient) envelope(data []byte) (soakOutcome, error) {
	env, err := service.Decode(bytes.TrimSpace(data))
	if err != nil {
		return 0, err
	}
	var werr service.WireError
	if env.DecodeBody(service.KindError, &werr) == nil {
		if werr.Code == service.CodeCancelled {
			return soakCancelled, nil
		}
		return 0, fmt.Errorf("error %s: %s", werr.Code, werr.Message)
	}
	var res service.JobResult
	if err := env.DecodeBody(service.KindResult, &res); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.byKey[res.Key]; !ok {
		s.byKey[res.Key] = res.Metrics
	} else if !bytes.Equal(prev, res.Metrics) {
		return 0, fmt.Errorf("key %s returned different bytes across responses (%d vs %d)", res.Key, len(prev), len(res.Metrics))
	}
	if res.CacheHit {
		return soakCacheHit, nil
	}
	return soakCompleted, nil
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

package service

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testConfig is a small deterministic daemon configuration.
func testConfig() Config {
	return Config{Workers: 2, QueueDepth: 8, CacheEntries: 16}
}

// startServer builds a server, starts its pool, and registers cleanup
// that hard-stops the pool and waits for the workers.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	t.Cleanup(func() { StopPool(t, srv, cancel) })
	return srv
}

// StopPool cancels the pool and waits for its workers. A pool still
// running cancelWatchdog (10 s) later fails the test with a goroutine
// dump, so a worker that stops hearing its context fails a named test
// instead of hanging the package until go test's timeout. It is exported
// for the external soak tests, which stop their pools through it too.
func StopPool(t testing.TB, srv *Server, cancel context.CancelFunc) {
	t.Helper()
	cancel()
	stopped := make(chan struct{})
	go func() {
		srv.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(cancelWatchdog):
		buf := make([]byte, 1<<20)
		t.Fatalf("pool still running %v after cancel:\n%s", cancelWatchdog, buf[:runtime.Stack(buf, true)])
	}
}

// waitTicket waits for a ticket with a test-local deadline.
func waitTicket(t *testing.T, ticket *Ticket) (*JobResult, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return ticket.Wait(ctx)
}

func TestSubmitCompletes(t *testing.T) {
	srv := startServer(t, testConfig())
	ticket, err := srv.Submit(context.Background(), JobSpec{Preset: "tiny"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := waitTicket(t, ticket)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if want := "preset:tiny@7|serial|p1|s1|pinweight"; res.Key != want {
		t.Fatalf("key = %q, want %q", res.Key, want)
	}
	if res.CacheHit {
		t.Fatal("first computation reported a cache hit")
	}
	if len(res.Metrics) == 0 {
		t.Fatal("result carries no metrics")
	}
	st := srv.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 1 submitted, 1 completed", st)
	}
	if st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want 1 cache miss, 0 hits", st)
	}
}

func TestSubmitRejectsInvalidSpecs(t *testing.T) {
	srv := startServer(t, testConfig())
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"no-circuit", JobSpec{}},
		{"both-circuits", JobSpec{Preset: "tiny", CircuitJSON: []byte(`{}`)}},
		{"bad-algo", JobSpec{Preset: "tiny", Algo: "quantum"}},
		{"bad-engine", JobSpec{Preset: "tiny", Engine: "carrier-pigeon"}},
		{"bad-netpart", JobSpec{Preset: "tiny", NetPart: "vibes"}},
		{"procs-over-cap", JobSpec{Preset: "tiny", Algo: "hybrid", Procs: 1 << 10}},
		{"negative-timeout", JobSpec{Preset: "tiny", TimeoutMS: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := srv.Submit(context.Background(), tc.spec); !errors.Is(err, ErrInvalidJob) {
				t.Fatalf("err = %v, want ErrInvalidJob", err)
			}
		})
	}
	st := srv.Stats()
	if st.RejectedInvalid != int64(len(cases)) {
		t.Fatalf("rejectedInvalid = %d, want %d", st.RejectedInvalid, len(cases))
	}
	if st.Submitted != 0 {
		t.Fatalf("submitted = %d, want 0 (invalid specs are rejected before admission)", st.Submitted)
	}
}

// TestOverloadBackpressure fills the queue (the pool is deliberately not
// started, so nothing drains it) and checks the next distinct job is
// rejected — while an identical job still coalesces, because joining an
// in-flight computation adds no work.
func TestOverloadBackpressure(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2, CacheEntries: 4})
	ctx := context.Background()

	t1, err := srv.Submit(ctx, JobSpec{Preset: "tiny", Seed: 1})
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	t2, err := srv.Submit(ctx, JobSpec{Preset: "tiny", Seed: 2})
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	if _, err := srv.Submit(ctx, JobSpec{Preset: "tiny", Seed: 3}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	t4, err := srv.Submit(ctx, JobSpec{Preset: "tiny", Seed: 2})
	if err != nil {
		t.Fatalf("coalescing submit rejected despite identical in-flight job: %v", err)
	}
	st := srv.Stats()
	if st.RejectedOverload != 1 || st.Coalesced != 1 || st.QueueDepth != 2 {
		t.Fatalf("stats = %+v, want 1 rejectedOverload, 1 coalesced, queueDepth 2", st)
	}

	// Start the pool and let the admitted jobs finish: backpressure must
	// not wedge the daemon.
	poolCtx, cancel := context.WithCancel(context.Background())
	srv.Start(poolCtx)
	defer StopPool(t, srv, cancel)
	for _, ticket := range []*Ticket{t1, t2, t4} {
		if _, err := waitTicket(t, ticket); err != nil {
			t.Fatalf("Wait after overload: %v", err)
		}
	}
}

// TestDrain pins the graceful-drain contract: in-flight and queued jobs
// finish, new computations are rejected, cache hits are still served,
// and the drained channel closes once the pool is idle.
func TestDrain(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: 16})
	poolCtx, cancel := context.WithCancel(context.Background())
	srv.Start(poolCtx)
	defer StopPool(t, srv, cancel)
	ctx := context.Background()

	// One job runs, one queues behind it on the single worker.
	t1, err := srv.Submit(ctx, JobSpec{Preset: "primary2", Algo: "hybrid", Procs: 4})
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	t2, err := srv.Submit(ctx, JobSpec{Preset: "small", Algo: "rowwise", Procs: 2})
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}

	drained := srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if _, err := srv.Submit(ctx, JobSpec{Preset: "tiny", Seed: 99}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}

	// Both admitted jobs complete despite the drain, in turn: the one
	// worker starts the queued job only once the running one is done.
	if _, err := waitTicket(t, t2); err != nil {
		t.Fatalf("Wait 2: %v", err)
	}
	select {
	case <-t1.Done():
	default:
		t.Fatal("the queued job finished before the running one: more jobs ran than the pool has workers")
	}
	res1, err := waitTicket(t, t1)
	if err != nil {
		t.Fatalf("Wait 1: %v", err)
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drained channel did not close after the last job finished")
	}

	// Cache hits cost no work, so they are still served mid-drain.
	hit, err := srv.Submit(ctx, JobSpec{Preset: "primary2", Algo: "hybrid", Procs: 4})
	if err != nil {
		t.Fatalf("cache-hit submit during drain: %v", err)
	}
	if !hit.CacheHit() {
		t.Fatal("expected a cache hit during drain")
	}
	res, err := waitTicket(t, hit)
	if err != nil {
		t.Fatalf("Wait on cache hit: %v", err)
	}
	if string(res.Metrics) != string(res1.Metrics) {
		t.Fatal("cache hit served different bytes than the original computation")
	}
	st := srv.Stats()
	if st.RejectedDraining != 1 {
		t.Fatalf("rejectedDraining = %d, want 1", st.RejectedDraining)
	}
	// Drain is idempotent: the same closed channel comes back.
	select {
	case <-srv.Drain():
	default:
		t.Fatal("second Drain returned an unclosed channel")
	}
}

// TestPriorityQueueOrder pins the admission order: priority descending,
// submission sequence ascending within a class.
func TestPriorityQueueOrder(t *testing.T) {
	mk := func(prio int, seq uint64) *job {
		return &job{priority: prio, seq: seq, done: make(chan struct{})}
	}
	var q jobQueue
	heap.Push(&q, mk(0, 1))
	heap.Push(&q, mk(5, 2))
	heap.Push(&q, mk(1, 3))
	heap.Push(&q, mk(5, 4))
	heap.Push(&q, mk(0, 5))

	var got []uint64
	for q.Len() > 0 {
		got = append(got, heap.Pop(&q).(*job).seq)
	}
	want := []uint64{2, 4, 3, 1, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

// TestHTTPEndpoints drives the daemon over its real HTTP surface.
func TestHTTPEndpoints(t *testing.T) {
	srv := startServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(t *testing.T, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		return resp, data
	}

	// The same job twice, computed and then a cache hit: each body must be
	// the reference encoder's bytes and a newline, all of Content-Length.
	t.Run("submit-and-result", func(t *testing.T) {
		body, err := Encode(KindJob, JobSpec{Preset: "tiny", Algo: "netwise", Procs: 2})
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		for _, hit := range []bool{false, true} {
			resp, data := post(t, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, data)
			}
			if resp.ContentLength != int64(len(data)) {
				t.Fatalf("Content-Length %d, body %d bytes", resp.ContentLength, len(data))
			}
			env, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			var res JobResult
			if err := env.DecodeBody(KindResult, &res); err != nil {
				t.Fatalf("DecodeBody: %v", err)
			}
			if len(res.Metrics) == 0 || res.CacheHit != hit {
				t.Fatalf("%d metrics bytes, cacheHit %v; want some, %v", len(res.Metrics), res.CacheHit, hit)
			}
			if want := append(referenceEncode(t, KindResult, res), '\n'); !bytes.Equal(data, want) {
				t.Fatalf("body differs from the reference encoder:\n got %.300s\nwant %.300s", data, want)
			}
		}
	})

	t.Run("malformed-envelope", func(t *testing.T) {
		resp, data := post(t, []byte(`{"proto":"smtp/1"}`))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, body %s", resp.StatusCode, data)
		}
		env, err := Decode([]byte(strings.TrimSpace(string(data))))
		if err != nil {
			t.Fatalf("error response is not an envelope: %v", err)
		}
		var werr WireError
		if err := env.DecodeBody(KindError, &werr); err != nil || werr.Code != CodeInvalid {
			t.Fatalf("error body = %+v (decode err %v), want code %q", werr, err, CodeInvalid)
		}
	})

	t.Run("invalid-spec", func(t *testing.T) {
		body, err := Encode(KindJob, JobSpec{Preset: "tiny", Algo: "quantum"})
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		resp, _ := post(t, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})

	// More procs than the circuit has rows passes admission (the rows are
	// only known once the circuit loads) and is still the client's error.
	t.Run("procs-over-rows", func(t *testing.T) {
		body, err := Encode(KindJob, JobSpec{Preset: "tiny", Algo: "rowwise", Procs: 8})
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		resp, data := post(t, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, body %s", resp.StatusCode, data)
		}
		env, err := Decode([]byte(strings.TrimSpace(string(data))))
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		var werr WireError
		if err := env.DecodeBody(KindError, &werr); err != nil || werr.Code != CodeInvalid {
			t.Fatalf("error body = %+v (decode err %v), want code %q", werr, err, CodeInvalid)
		}
	})

	t.Run("oversize-body", func(t *testing.T) {
		resp, _ := post(t, make([]byte, maxRequestBody+2))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", resp.StatusCode)
		}
	})

	t.Run("stats", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatalf("GET /v1/stats: %v", err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		env, err := Decode([]byte(strings.TrimSpace(string(data))))
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		var st Stats
		if err := env.DecodeBody(KindStats, &st); err != nil {
			t.Fatalf("DecodeBody: %v", err)
		}
		if st.Submitted < 1 || st.Completed < 1 {
			t.Fatalf("stats = %+v, want at least one submitted and completed", st)
		}
	})

	t.Run("healthz-and-drain", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %d, want 200", resp.StatusCode)
		}

		<-srv.Drain()
		resp, err = http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz draining: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
		}

		body, err := Encode(KindJob, JobSpec{Preset: "tiny", Seed: 77})
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		resp, data := post(t, body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit while draining = %d, body %s", resp.StatusCode, data)
		}
	})
}

// waitForSubscriber polls until the in-flight job for key has at least
// one progress subscriber attached — the pool can then be started with
// the full stage timeline guaranteed to be observed.
func waitForSubscriber(t *testing.T, srv *Server, key string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		srv.mu.Lock()
		j := srv.inflight[key]
		subs := 0
		if j != nil {
			j.mu.Lock()
			subs = len(j.subs)
			j.mu.Unlock()
		}
		srv.mu.Unlock()
		if subs > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no subscriber attached to %s", key)
}

// TestSSEStream consumes a streamed submission and checks the event
// grammar: one or more progress envelopes, then exactly one result. The
// pool is held back until the SSE handler has subscribed so the stage
// timeline cannot race the computation.
func TestSSEStream(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := Encode(KindJob, JobSpec{Preset: "small", Algo: "hybrid", Procs: 2})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Accept", "text/event-stream")

	type streamOutcome struct {
		raw []byte
		ct  string
		err error
	}
	outcome := make(chan streamOutcome, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			outcome <- streamOutcome{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		outcome <- streamOutcome{raw: raw, ct: resp.Header.Get("Content-Type"), err: err}
	}()

	waitForSubscriber(t, srv, "preset:small@7|hybrid|p2|s1|pinweight")
	poolCtx, cancel := context.WithCancel(context.Background())
	srv.Start(poolCtx)
	defer StopPool(t, srv, cancel)

	var got streamOutcome
	select {
	case got = <-outcome:
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not terminate")
	}
	if got.err != nil {
		t.Fatalf("stream: %v", got.err)
	}
	if got.ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", got.ct)
	}
	raw := got.raw
	var progress, results int
	for _, line := range strings.Split(string(raw), "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		env, err := Decode([]byte(data))
		if err != nil {
			t.Fatalf("stream carried an invalid envelope: %v", err)
		}
		switch env.Kind {
		case KindProgress:
			progress++
			var ev Progress
			if err := env.DecodeBody(KindProgress, &ev); err != nil {
				t.Fatalf("progress body: %v", err)
			}
			if ev.Event != "start" && ev.Event != "end" {
				t.Fatalf("progress event = %q, want start|end", ev.Event)
			}
		case KindResult:
			results++
		default:
			t.Fatalf("unexpected stream kind %q", env.Kind)
		}
	}
	if results != 1 {
		t.Fatalf("stream carried %d results, want exactly 1", results)
	}
	if progress == 0 {
		t.Fatal("stream carried no progress events")
	}
}

// TestSSECacheHitStream: a cache-hit submission over SSE must terminate
// with the result immediately instead of spinning on the closed
// progress channel.
func TestSSECacheHitStream(t *testing.T) {
	srv := startServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Prime the cache.
	ticket, err := srv.Submit(context.Background(), JobSpec{Preset: "tiny"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := waitTicket(t, ticket); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	body, err := Encode(KindJob, JobSpec{Preset: "tiny"})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read stream (the stream must terminate on its own): %v", err)
	}
	if !strings.Contains(string(raw), "event: "+KindResult) {
		t.Fatalf("cache-hit stream carried no result event:\n%s", raw)
	}
}

// TestStalledSubscriberDoesNotBlockJob: progress is advisory. A
// subscriber that never reads loses the events past its buffer, and the
// job still finishes: publishing must never wait on a reader while it
// holds the job's lock.
func TestStalledSubscriberDoesNotBlockJob(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	ticket, err := srv.Submit(context.Background(), JobSpec{Preset: "small", Algo: "hybrid", Procs: 4})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Subscribed before the run and never read. Completion detaches the
	// subscriber, so the test does not unsubscribe: behind a publish that
	// blocks on this reader, that call would hang on the job's lock
	// instead of failing.
	ticket.Subscribe()

	poolCtx, cancel := context.WithCancel(context.Background())
	srv.Start(poolCtx)
	defer StopPool(t, srv, cancel)

	select {
	case <-ticket.Done():
	case <-time.After(cancelWatchdog):
		t.Fatal("job with a stalled subscriber never finished")
	}
	if _, err := waitTicket(t, ticket); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	st := srv.Stats()
	if st.ProgressDelivered != progressBuffer || st.ProgressDropped == 0 {
		t.Fatalf("progress delivered %d, dropped %d: want the %d-event buffer filled and the rest dropped",
			st.ProgressDelivered, st.ProgressDropped, progressBuffer)
	}
}

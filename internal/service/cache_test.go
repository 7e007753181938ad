package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"

	"parroute/internal/gen"
	"parroute/internal/metrics"
	"parroute/internal/parallel"
	"parroute/internal/route"
	"parroute/internal/runcfg"
)

// TestResultCacheLRU pins lru's mechanics: eviction
// order, hit/miss counters, and recency updates on get.
func TestResultCacheLRU(t *testing.T) {
	c := newLRU[[]byte](2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // refresh a: b is now the LRU entry
		t.Fatal("a missing")
	}
	c.put("c", []byte("C")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if v, ok := c.get("a"); !ok || string(v) != "A" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	if v, ok := c.get("c"); !ok || string(v) != "C" {
		t.Fatalf("c = %q, %v", v, ok)
	}
	hits, misses, entries, evictions := c.counters()
	if hits != 3 || misses != 1 || entries != 2 || evictions != 1 {
		t.Fatalf("counters = %d hits, %d misses, %d entries, %d evictions; want 3/1/2/1",
			hits, misses, entries, evictions)
	}
	// Overwriting an existing key must not grow the cache.
	c.put("a", []byte("A2"))
	if _, _, entries, _ := c.counters(); entries != 2 {
		t.Fatalf("entries = %d after overwrite, want 2", entries)
	}
	if v, _ := c.get("a"); string(v) != "A2" {
		t.Fatalf("a = %q after overwrite, want A2", v)
	}
}

// TestSingleflightCollapse: many concurrent submissions of one job key
// collapse onto a single computation — everyone gets the same bytes,
// the pipeline runs once.
func TestSingleflightCollapse(t *testing.T) {
	const clients = 32
	srv := New(Config{Workers: 4, QueueDepth: 8, CacheEntries: 8})
	spec := JobSpec{Preset: "small", Algo: "hybrid", Procs: 2}

	// Submit from many goroutines before the pool runs: every submission
	// must coalesce onto the first job rather than queue its own.
	tickets := make([]*Ticket, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			ticket, err := srv.Submit(context.Background(), spec)
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			tickets[i] = ticket
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	st := srv.Stats()
	if st.Coalesced != clients-1 || st.QueueDepth != 1 {
		t.Fatalf("stats = %+v, want %d coalesced onto 1 queued job", st, clients-1)
	}

	poolCtx, cancel := context.WithCancel(context.Background())
	srv.Start(poolCtx)
	defer StopPool(t, srv, cancel)

	var first []byte
	for i, ticket := range tickets {
		res, err := waitTicket(t, ticket)
		if err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
		if res.CacheHit {
			t.Fatalf("waiter %d reported a cache hit for a coalesced computation", i)
		}
		if first == nil {
			first = res.Metrics
		} else if !bytes.Equal(first, res.Metrics) {
			t.Fatalf("waiter %d got different bytes than waiter 0", i)
		}
	}
	st = srv.Stats()
	if st.Completed != 1 {
		t.Fatalf("completed = %d, want exactly 1 (the computation ran once)", st.Completed)
	}
	if st.CacheMisses != clients {
		t.Fatalf("cacheMisses = %d, want %d (every submission probed the cache)", st.CacheMisses, clients)
	}

	// The next submission is a pure cache hit.
	hit, err := srv.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("post-completion Submit: %v", err)
	}
	if !hit.CacheHit() {
		t.Fatal("expected a cache hit after completion")
	}
	res, err := waitTicket(t, hit)
	if err != nil {
		t.Fatalf("Wait on hit: %v", err)
	}
	if !bytes.Equal(res.Metrics, first) {
		t.Fatal("cache hit bytes differ from the computed bytes")
	}
	if st := srv.Stats(); st.CacheHits != 1 {
		t.Fatalf("cacheHits = %d, want 1", st.CacheHits)
	}
}

// TestCanonicalBytesSurviveEnvelope: canonical result bytes embedded in
// a result envelope as a json.RawMessage come back byte-identical after
// encode→decode. Embedding compacts whitespace, so the canonical form
// must already be whitespace-free (a trailing newline here once broke
// byte parity between the wire and one-shot runs).
func TestCanonicalBytesSurviveEnvelope(t *testing.T) {
	routed, err := route.Route(context.Background(), gen.Tiny(7), route.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := CanonicalResult(routed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(KindResult, JobResult{Key: "k", Metrics: canon})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	var res JobResult
	if err := env.DecodeBody(KindResult, &res); err != nil {
		t.Fatalf("DecodeBody: %v", err)
	}
	if !bytes.Equal(res.Metrics, canon) {
		t.Fatalf("canonical bytes changed across the envelope:\n sent %q...\n got %q...", canon[:40], res.Metrics[:40])
	}
}

// TestInlineCircuitKey pins the inline circuit identity: "inline:" and the
// hex SHA-256 of the client's bytes, the key's first field. A weak hash
// here would let one client be served another's circuit and result.
func TestInlineCircuitKey(t *testing.T) {
	body := []byte(`{"rows":2}`)
	r, err := New(testConfig()).resolve(JobSpec{CircuitJSON: body, Algo: "serial", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	wantID := "inline:" + hex.EncodeToString(sum[:])
	if r.circuitID != wantID || r.key != wantID+"|serial|p1|s3|pinweight" {
		t.Fatalf("circuitID %q, key %q; want %q and its job key", r.circuitID, r.key, wantID)
	}
}

// TestCanonicalResultExactCap: the result cache holds CanonicalResult's
// slice for the daemon's life, so it must carry no spare capacity.
func TestCanonicalResultExactCap(t *testing.T) {
	routed, err := route.Route(context.Background(), gen.Small(7), route.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalResult(routed)
	if err != nil {
		t.Fatal(err)
	}
	if cap(b) != len(b) {
		t.Fatalf("cap %d, len %d: the cached bytes carry spare capacity", cap(b), len(b))
	}
}

// oneShot routes a job outside the daemon from a fresh load: the bytes
// the daemon must return for it.
func oneShot(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	c, err := runcfg.LoadPreset(spec.Preset, runcfg.DefaultCircuit().GenSeed)
	if err != nil {
		t.Fatal(err)
	}
	run := runcfg.Default()
	run.Algo, run.Procs, run.Seed = spec.Algo, spec.Procs, spec.Seed
	opts, err := run.Options()
	if err != nil {
		t.Fatal(err)
	}
	var res *metrics.Result
	if run.Serial() {
		res, err = parallel.RunBaseline(context.Background(), c, opts)
	} else {
		res, err = parallel.Run(context.Background(), c, opts)
	}
	if err != nil {
		t.Fatalf("one-shot %+v: %v", spec, err)
	}
	b, err := CanonicalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSharedCircuitConcurrentJobs: every job on a circuit routes the one
// cached copy, concurrently and read-only. Eight jobs on one preset run at
// once, serial and every parallel algorithm at P 2; each returns its
// one-shot route, all eight are circuit-cache hits, and afterwards the
// cached circuit still equals a fresh load. A repeated inline circuit is
// parsed once. scripts/check.sh runs this under -race.
func TestSharedCircuitConcurrentJobs(t *testing.T) {
	srv := startServer(t, Config{Workers: 4, QueueDepth: 16, CacheEntries: 16})
	run := func(specs ...JobSpec) []*JobResult {
		t.Helper()
		out := make([]*JobResult, len(specs))
		var wg sync.WaitGroup
		for i, spec := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ticket, err := srv.Submit(context.Background(), spec)
				if err == nil {
					out[i], err = waitTicket(t, ticket)
				}
				if err != nil {
					t.Errorf("job %+v: %v", spec, err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		return out
	}

	run(JobSpec{Preset: "small", Algo: "serial", Seed: 99}) // loads the circuit
	var specs []JobSpec
	for _, algo := range []string{"serial", "rowwise", "netwise", "hybrid"} {
		for seed := uint64(1); seed <= 2; seed++ {
			specs = append(specs, JobSpec{Preset: "small", Algo: algo, Procs: 2, Seed: seed})
		}
	}
	for i, res := range run(specs...) {
		if want := oneShot(t, specs[i]); !bytes.Equal(res.Metrics, want) {
			t.Errorf("%+v: daemon bytes differ from the one-shot route", specs[i])
		}
	}
	if hits, misses, _, _ := srv.circuits.counters(); hits != int64(len(specs)) || misses != 1 {
		t.Fatalf("circuit cache: %d hits, %d misses; want %d hits on one load", hits, misses, len(specs))
	}
	cached, _ := srv.circuits.get("preset:small@7")
	if fresh, _ := runcfg.LoadPreset("small", 7); !reflect.DeepEqual(cached, fresh) {
		t.Fatal("routing jobs wrote to the shared cached circuit")
	}

	var inline bytes.Buffer
	if err := gen.Tiny(7).WriteJSON(&inline); err != nil {
		t.Fatal(err)
	}
	_, before, _, _ := srv.circuits.counters()
	run(JobSpec{CircuitJSON: inline.Bytes(), Algo: "serial", Seed: 1})
	run(JobSpec{CircuitJSON: bytes.Clone(inline.Bytes()), Algo: "hybrid", Procs: 2, Seed: 1})
	if _, after, _, _ := srv.circuits.counters(); after-before != 1 {
		t.Fatalf("two jobs on one inline circuit loaded it %d times, want 1", after-before)
	}
}

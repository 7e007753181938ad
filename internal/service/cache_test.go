package service

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"parroute/internal/gen"
	"parroute/internal/route"
)

// TestResultCacheLRU pins the cache's bounded-LRU mechanics: eviction
// order, hit/miss counters, and recency updates on get.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
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
	defer srv.Wait() // after cancel: defers run LIFO
	defer cancel()

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

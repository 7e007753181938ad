package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/parallel"
	"parroute/internal/runcfg"
	"parroute/internal/service"
)

const (
	missCompareEvery = 50 // every Nth miss body is compared with a one-shot route
	statsPollEvery   = 16 // client 0 samples /v1/stats every Nth of its traced-run ops
	speedEvery       = 8  // every client times the speedometer kernel before every Nth of its ops
	warmMisses       = 4
)

// twgrd is a running daemon behind a loopback listener, plus what the
// clients check its responses against.
type twgrd struct {
	cfg    runConfig
	srv    *service.Server
	url    string
	client *http.Client
	stop   func() error
	c      *circuit.Circuit  // the preset the jobs name, for one-shot references
	refs   map[uint64][]byte // routing seed → canonical result (the cached keys)
	bodies map[uint64][]byte // routing seed → a whole cache-hit response that passed verify
	tracks int               // TotalTracks inside the first reference result
}

// Routing seeds are carved from the run seed so that no two jobs of a
// miss run share a key and the hit keys never collide with them.
func (w *twgrd) hitSeed(k int) uint64  { return w.cfg.seed*1_000_003 + 1 + uint64(k) }
func (w *twgrd) warmSeed(k int) uint64 { return w.cfg.seed*1_000_003 + 101 + uint64(k) }
func (w *twgrd) missSeed(n int) uint64 { return w.cfg.seed*1_000_003 + 1001 + uint64(n) }

func (w *twgrd) spec(seed uint64) service.JobSpec {
	return service.JobSpec{Preset: w.cfg.sc.svc, GenSeed: genSeed, Algo: runcfg.AlgoSerial, Seed: seed}
}

// oneShot routes the job outside the daemon: the bytes a correct response
// must carry.
func (w *twgrd) oneShot(ctx context.Context, seed uint64) ([]byte, error) {
	run := runcfg.Default()
	run.Seed = seed
	opts, err := run.Options()
	if err != nil {
		return nil, err
	}
	res, err := parallel.RunBaseline(ctx, w.c, opts)
	if err != nil {
		return nil, err
	}
	return service.CanonicalResult(res)
}

// startTwgrd brings the daemon up: worker pool, listener, HTTP server.
func startTwgrd(ctx context.Context, cfg runConfig) (*twgrd, error) {
	w := &twgrd{cfg: cfg, refs: map[uint64][]byte{}, bodies: map[uint64][]byte{}}
	c, err := runcfg.LoadPreset(cfg.sc.svc, genSeed)
	if err != nil {
		return nil, err
	}
	w.c = c
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.srv = service.New(service.Config{Workers: cfg.nproc})
	poolCtx, cancel := context.WithCancel(ctx)
	w.srv.Start(poolCtx)
	hs := &http.Server{Handler: w.srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tp := &http.Transport{MaxIdleConnsPerHost: cfg.nproc, DisableCompression: true}
	w.client = &http.Client{Transport: tp}
	w.url = "http://" + ln.Addr().String()
	w.stop = func() error {
		<-w.srv.Drain()
		cancel()
		w.srv.Wait()
		tp.CloseIdleConnections()
		err := hs.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	return w, nil
}

// reqSample is one timed request.
type reqSample struct {
	n      int // op index
	client int
	at     time.Time // when the request was sent
	ms     float64   // request sent to last byte read
	ttfb   float64   // request sent to response headers
	verify float64   // off-clock verification
	traced bool
}

// reply is one response, with the instants the client saw it arrive.
type reply struct {
	start, first, last time.Time // request sent, headers received, last byte read
	status             int
	data               []byte
}

// roundTrip sends one job and reads the whole response.
func (w *twgrd) roundTrip(ctx context.Context, seed uint64) (reply, error) {
	body, err := service.Encode(service.KindJob, w.spec(seed))
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	r := reply{start: now()}
	resp, err := w.client.Do(req)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r.first, r.status = now(), resp.StatusCode
	r.data, err = io.ReadAll(resp.Body)
	r.last = now()
	return r, err
}

// post is one timed op: a round trip on the clock, then verification off
// it — 200, an envelope that decodes and verifies, the cache flag the
// workload expects, and, for every key with a stored reference and for the
// misses compare selects, a body equal to the one-shot route byte for byte.
func (w *twgrd) post(ctx context.Context, n int, seed uint64, wantHit, compare bool, tr *tracer) (reqSample, error) {
	root := 0
	if tr != nil {
		root = tr.begin(0, n, "POST /v1/jobs")
		defer tr.end(root)
	}
	r, err := w.roundTrip(ctx, seed)
	if err == nil {
		err = w.verify(ctx, r.status, r.data, seed, wantHit, compare)
	}
	if err != nil {
		return reqSample{}, err
	}
	done := now()
	if tr != nil {
		tr.add(root, n, "twgrd.first-byte", r.start, r.first)
		tr.add(root, n, "twgrd.last-byte", r.first, r.last)
		tr.add(root, n, "client.verify", r.last, done)
	}
	return reqSample{n: n, at: r.start, ms: ms(r.last.Sub(r.start)), ttfb: ms(r.first.Sub(r.start)), verify: ms(done.Sub(r.last)), traced: tr != nil}, nil
}

func (w *twgrd) verify(ctx context.Context, status int, data []byte, seed uint64, wantHit, compare bool) error {
	// A cache hit's response is the same bytes every time, so one equal to
	// a response that already passed everything below has passed it too —
	// which keeps the load generator off the cores the daemon is using.
	if prev := w.bodies[seed]; wantHit && prev != nil && bytes.Equal(data, prev) {
		return nil
	}
	if status != http.StatusOK {
		return fmt.Errorf("seed %d: HTTP %d: %.200s", seed, status, data)
	}
	env, err := service.Decode(data)
	if err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	var jr service.JobResult
	if err := env.DecodeBody(service.KindResult, &jr); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	if jr.CacheHit != wantHit {
		return fmt.Errorf("seed %d (%s): cacheHit %v, want %v", seed, jr.Key, jr.CacheHit, wantHit)
	}
	ref := w.refs[seed]
	if ref == nil && compare {
		if ref, err = w.oneShot(ctx, seed); err != nil {
			return fmt.Errorf("seed %d: one-shot reference: %w", seed, err)
		}
	}
	if ref != nil && !bytes.Equal(jr.Metrics, ref) {
		return fmt.Errorf("seed %d (%s): %d response bytes differ from the one-shot route's %d", seed, jr.Key, len(jr.Metrics), len(ref))
	}
	return nil
}

func (w *twgrd) stats(ctx context.Context) (service.Stats, error) {
	var st service.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	env, err := service.Decode(data)
	if err != nil {
		return st, err
	}
	return st, env.DecodeBody(service.KindStats, &st)
}

// setupTwgrd starts a daemon and brings it to the state the timed section
// assumes: on twgrd-hit the keys are routed (as misses, each compared with
// its one-shot route) and read back once; on twgrd-miss a few throw-away
// jobs warm the path.
func setupTwgrd(ctx context.Context, cfg runConfig) (*twgrd, error) {
	w, err := startTwgrd(ctx, cfg)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*twgrd, error) { return nil, errors.Join(err, w.stop()) }
	keys, seedOf := warmMisses, w.warmSeed
	if cfg.workload == wlTwgrdHit {
		keys, seedOf = cfg.sc.hitKeys, w.hitSeed
	}
	for k := 0; k < keys; k++ {
		seed := seedOf(k)
		if k == 0 || cfg.workload == wlTwgrdHit {
			ref, err := w.oneShot(ctx, seed)
			if err != nil {
				return fail(fmt.Errorf("one-shot reference: %w", err))
			}
			w.refs[seed] = ref
			if k == 0 {
				res, err := metrics.ReadResultJSON(bytes.NewReader(ref))
				if err != nil {
					return fail(fmt.Errorf("reference result: %w", err))
				}
				w.tracks = res.TotalTracks
			}
		}
		if _, err := w.post(ctx, k, seed, false, false, nil); err != nil {
			return fail(fmt.Errorf("set-up job: %w", err))
		}
	}
	if cfg.workload == wlTwgrdHit {
		for k := 0; k < keys; k++ {
			seed := w.hitSeed(k)
			r, err := w.roundTrip(ctx, seed)
			if err == nil {
				err = w.verify(ctx, r.status, r.data, seed, true, false)
			}
			if err != nil {
				return fail(fmt.Errorf("set-up read-back: %w", err))
			}
			w.bodies[seed] = r.data
		}
	}
	return w, nil
}

// runTwgrd runs one of the two daemon workloads: repeated set-up, then
// cfg.nproc closed-loop clients for the timed section, then the metrics.
func runTwgrd(ctx context.Context, cfg runConfig, sp *speedometer, tr *tracer, tl *tally) (values, int, error) {
	var w *twgrd
	var setups []float64
	for i := 0; i < cfg.sc.setups; i++ {
		if w != nil {
			if err := w.stop(); err != nil {
				return nil, 0, fmt.Errorf("stopping the daemon: %w", err)
			}
		}
		runtime.GC()
		sp.sample()
		start := now()
		var err error
		if w, err = setupTwgrd(ctx, cfg); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, msSince(start)/1000*sp.factor(start))
	}
	v, n, err := w.measure(ctx, sp, tr, tl)
	if serr := w.stop(); serr != nil {
		err = errors.Join(err, fmt.Errorf("stopping the daemon: %w", serr))
	}
	if err != nil {
		return nil, 0, err
	}
	v["setup_s"] = median(setups)
	return v, n, nil
}

// measure is the timed section and the metrics it yields.
func (w *twgrd) measure(ctx context.Context, sp *speedometer, tr *tracer, tl *tally) (values, int, error) {
	cfg := w.cfg
	hit := cfg.workload == wlTwgrdHit
	before, err := w.stats(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("stats: %w", err)
	}
	var (
		mu       sync.Mutex // guards samples, tl, queueMax
		samples  []reqSample
		queueMax int64
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	start := now()
	for cl := 0; cl < cfg.nproc; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; msSince(start) < cfg.seconds*1000 || i < cfg.sc.minOps; i++ {
				n := int(next.Add(1)) - 1
				seed, compare := w.missSeed(n), n%missCompareEvery == 0
				if hit {
					seed, compare = w.hitSeed(n%cfg.sc.hitKeys), true
				}
				var opTr *tracer
				if tr != nil && n%2 == 1 {
					opTr = tr
				}
				if i%speedEvery == 0 {
					sp.sample()
				}
				s, err := w.post(ctx, n, seed, hit, compare, opTr)
				s.client = cl
				depth := int64(-1)
				if tr != nil && cl == 0 && i%statsPollEvery == 0 {
					if st, serr := w.stats(ctx); serr == nil {
						depth = st.QueueDepth
					}
				}
				mu.Lock()
				tl.check(err)
				if err == nil {
					samples = append(samples, s)
				}
				queueMax = max(queueMax, depth)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	after, err := w.stats(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("stats: %w", err)
	}
	if len(samples) == 0 {
		return nil, 0, fmt.Errorf("no request succeeded: %v", tl.errors)
	}

	// lat is the wall at the box's nominal speed (see calibrate.go); the
	// ratios and the per-layer numbers below use the walls as measured.
	var raw, lat, ttfb, verify, even, odd, traced, plain []float64
	jobs, inflight := make([]float64, cfg.nproc), make([]float64, cfg.nproc)
	for _, s := range samples {
		nominal := s.ms * sp.factor(s.at)
		jobs[s.client]++
		inflight[s.client] += nominal / 1000
		raw, lat, ttfb, verify = append(raw, s.ms), append(lat, nominal), append(ttfb, s.ttfb), append(verify, s.verify)
		if s.n%2 == 0 {
			even = append(even, s.ms)
		} else {
			odd = append(odd, s.ms)
		}
		if s.traced {
			traced = append(traced, s.ms)
		} else {
			plain = append(plain, s.ms)
		}
	}
	opsPerS := 0.0 // Σ over clients of jobs ÷ seconds in flight
	for cl := range jobs {
		opsPerS += ratio(jobs[cl], inflight[cl])
	}
	v := values{
		"raw_op_ms_p50": median(raw),
		"op_ms_p50":     median(lat),
		"ops_per_s":     opsPerS,
		"speedup":       ratio(median(odd), median(even)), // the A/A control: no baseline configuration
		"tracks":        float64(w.tracks),
	}
	if tr != nil {
		v["service.ttfb_ms_p50"] = median(ttfb)
		v["service.lat_ms_p90"] = percentile(raw, 0.9)
		if len(raw) >= 1000 {
			v["service.lat_ms_p99"] = percentile(raw, 0.99)
		}
		v["service.client_verify_ms"] = median(verify)
		v["trace.overhead_pct"] = 100 * (ratio(median(traced), median(plain)) - 1)
		hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
		v["service.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		v["service.coalesced"] = float64(after.Coalesced - before.Coalesced)
		v["service.rejected"] = float64(after.RejectedOverload + after.RejectedDraining + after.RejectedInvalid -
			before.RejectedOverload - before.RejectedDraining - before.RejectedInvalid)
		v["service.queue_depth_max"] = float64(queueMax)
		wait, err := w.submitWait(ctx, hit, int(next.Load()))
		if err != nil {
			return nil, 0, err
		}
		v["service.submit_wait_ms_p50"] = wait
	}
	return v, len(samples), nil
}

// submitWait times the daemon's in-process path — Submit and Ticket.Wait,
// no HTTP and no envelope — on the same kind of keys as the workload.
func (w *twgrd) submitWait(ctx context.Context, hit bool, used int) (float64, error) {
	reps := 20
	if hit {
		reps = 200
	}
	var waits []float64
	for i := 0; i < reps; i++ {
		seed := w.missSeed(used + 1000 + i)
		if hit {
			seed = w.hitSeed(i % w.cfg.sc.hitKeys)
		}
		start := now()
		t, err := w.srv.Submit(ctx, w.spec(seed))
		if err != nil {
			return 0, fmt.Errorf("in-process submit: %w", err)
		}
		if _, err := t.Wait(ctx); err != nil {
			return 0, fmt.Errorf("in-process wait: %w", err)
		}
		waits = append(waits, msSince(start))
	}
	return median(waits), nil
}

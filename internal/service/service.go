package service

import (
	"bytes"
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/parallel"
	"parroute/internal/runcfg"
)

// Admission errors. The HTTP layer maps them onto backpressure status
// codes (429 for ErrOverloaded, 503 for ErrDraining, 400 for
// ErrInvalidJob); direct callers match with errors.Is.
var (
	ErrOverloaded = errors.New("service: queue full, retry later")
	ErrDraining   = errors.New("service: draining, not admitting new jobs")
	ErrInvalidJob = errors.New("service: invalid job")
)

// Config sizes the daemon.
type Config struct {
	// Workers is the worker-pool size — how many routing jobs run
	// concurrently. Default 4.
	Workers int
	// QueueDepth bounds the admission queue; a submit that finds the
	// queue full is rejected with ErrOverloaded. Default 64.
	QueueDepth int
	// CacheEntries bounds the result cache. Default 256.
	CacheEntries int
	// Defaults fills the knobs a JobSpec leaves zero: algorithm, engine,
	// platform, net partition, seed, timeout, and the server-side chaos
	// plan (jobs cannot request chaos themselves).
	Defaults runcfg.Run
	// GenSeed is the preset generation seed jobs inherit when their spec
	// leaves it zero. Default 7 (cmd/twgr's default).
	GenSeed uint64
}

const (
	// progressBuffer is the per-subscriber progress-event buffer; a
	// subscriber that falls further behind loses oldest-first (progress
	// is advisory, results are not).
	progressBuffer = 64
	// maxProcs caps the per-job worker count (a job asking for more is
	// rejected as invalid).
	maxProcs = 16
	// circuitCacheEntries bounds the loaded-circuit cache: jobs name few
	// distinct circuits, and each entry is a whole circuit.
	circuitCacheEntries = 4
)

func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.Defaults.Algo == "" {
		c.Defaults = runcfg.Default()
	}
	if c.GenSeed == 0 {
		c.GenSeed = runcfg.DefaultCircuit().GenSeed
	}
}

// counters is the daemon's atomic tally set; see Stats for meanings.
type counters struct {
	submitted, completed, failed, cancelled atomic.Int64
	coalesced                               atomic.Int64
	rejOverload, rejDraining, rejInvalid    atomic.Int64
	running                                 atomic.Int64
	progressDelivered, progressDropped      atomic.Int64
}

// Server is the twgrd core: admission control in front of a bounded
// priority queue, a fixed worker pool draining it, a result cache, and
// the drain machinery. Construct with New, start the pool with Start,
// submit with Submit (the HTTP layer in http.go does), and shut down
// with Drain followed by cancelling Start's context.
type Server struct {
	cfg      Config
	cache    *lru[[]byte]           // canonical result bytes by job key
	circuits *lru[*circuit.Circuit] // loaded circuits by circuit identity; shared read-only
	stats    counters

	mu       sync.Mutex
	queue    jobQueue
	inflight map[string]*job // queued or running jobs by cache key
	seq      uint64
	active   int // queued + running jobs
	draining bool
	drained  chan struct{} // non-nil once Drain is called; closed when active hits 0

	kick    chan struct{}
	workers sync.WaitGroup
}

// New builds a stopped server; call Start to launch the worker pool.
func New(cfg Config) *Server {
	cfg.normalize()
	return &Server{
		cfg:      cfg,
		cache:    newLRU[[]byte](cfg.CacheEntries),
		circuits: newLRU[*circuit.Circuit](circuitCacheEntries),
		inflight: make(map[string]*job),
		kick:     make(chan struct{}, cfg.Workers),
	}
}

// Start launches the worker pool. Cancelling ctx is the hard stop: every
// running job is cancelled (its waiters see an error wrapping ctx's
// cause) and the workers exit after failing whatever is still queued.
// For a graceful shutdown call Drain first and cancel ctx after the
// drained channel closes.
func (s *Server) Start(ctx context.Context) {
	s.workers.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker(ctx)
	}
}

// Wait blocks until every worker has exited (after Start's ctx is
// cancelled).
func (s *Server) Wait() { s.workers.Wait() }

// Drain stops admitting new computations and returns a channel that
// closes once every queued and running job has finished. Cache hits are
// still served (they cost no work); everything else is rejected with
// ErrDraining. Safe to call more than once.
func (s *Server) Drain() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	if s.drained == nil {
		s.drained = make(chan struct{})
		if s.active == 0 {
			close(s.drained)
		}
	}
	return s.drained
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats snapshots the daemon's counters.
func (s *Server) Stats() Stats {
	hits, misses, entries, evictions := s.cache.counters()
	s.mu.Lock()
	depth := int64(len(s.queue))
	s.mu.Unlock()
	return Stats{
		Submitted:         s.stats.submitted.Load(),
		Completed:         s.stats.completed.Load(),
		Failed:            s.stats.failed.Load(),
		Cancelled:         s.stats.cancelled.Load(),
		CacheHits:         hits,
		CacheMisses:       misses,
		Coalesced:         s.stats.coalesced.Load(),
		RejectedOverload:  s.stats.rejOverload.Load(),
		RejectedDraining:  s.stats.rejDraining.Load(),
		RejectedInvalid:   s.stats.rejInvalid.Load(),
		QueueDepth:        depth,
		Running:           s.stats.running.Load(),
		CacheEntries:      entries,
		CacheEvictions:    evictions,
		ProgressDelivered: s.stats.progressDelivered.Load(),
		ProgressDropped:   s.stats.progressDropped.Load(),
	}
}

// resolved is a JobSpec with the daemon's defaults applied and its
// routing configuration validated.
type resolved struct {
	spec      JobSpec
	run       runcfg.Run
	key       string
	circuitID string // the key's first field: the circuit cache's key
	// timeout bounds the routing computation (0 = none).
	timeout time.Duration
}

// resolve applies the daemon defaults to a spec, validates the resulting
// run configuration, and computes the job's cache identity. The key
// deliberately excludes the engine and the cost-model platform: routing
// output is byte-identical across engines (the conformance matrix pins
// this), and the platform only shapes simulated time, which the
// canonical result zeroes.
func (s *Server) resolve(spec JobSpec) (resolved, error) {
	d := s.cfg.Defaults
	if spec.Algo == "" {
		spec.Algo = d.Algo
	}
	if spec.Procs == 0 {
		spec.Procs = d.Procs
	}
	if spec.Seed == 0 {
		spec.Seed = d.Seed
	}
	if spec.Engine == "" {
		spec.Engine = d.Engine
	}
	if spec.Platform == "" {
		spec.Platform = d.Platform
	}
	if spec.NetPart == "" {
		spec.NetPart = d.NetPart
	}
	if spec.GenSeed == 0 {
		spec.GenSeed = s.cfg.GenSeed
	}
	if spec.TimeoutMS == 0 {
		spec.TimeoutMS = d.Timeout.Milliseconds()
	}
	if spec.Procs > maxProcs {
		return resolved{}, fmt.Errorf("%w: procs %d exceeds the daemon cap %d", ErrInvalidJob, spec.Procs, maxProcs)
	}
	if spec.TimeoutMS < 0 {
		return resolved{}, fmt.Errorf("%w: negative timeoutMs %d", ErrInvalidJob, spec.TimeoutMS)
	}

	var circuitID string
	switch {
	case spec.Preset != "" && len(spec.CircuitJSON) > 0:
		return resolved{}, fmt.Errorf("%w: set preset or circuit, not both", ErrInvalidJob)
	case spec.Preset != "":
		circuitID = fmt.Sprintf("preset:%s@%d", spec.Preset, spec.GenSeed)
	case len(spec.CircuitJSON) > 0:
		// Collision-resistant: clients choose these bytes (DESIGN §13).
		sum := sha256.Sum256(spec.CircuitJSON)
		circuitID = "inline:" + hex.EncodeToString(sum[:])
	default:
		return resolved{}, fmt.Errorf("%w: need a preset or an inline circuit", ErrInvalidJob)
	}

	run := runcfg.Run{
		Algo: spec.Algo,
		// Intra-rank route workers are a daemon-level knob (-workers), not
		// a job field: routing output is byte-identical at every setting,
		// so it never enters the cache key either.
		Workers:  d.Workers,
		Procs:    spec.Procs,
		Engine:   spec.Engine,
		Platform: spec.Platform,
		Seed:     spec.Seed,
		NetPart:  spec.NetPart,
		// Chaos is a server-side knob: operators inject faults fleet-wide
		// for resilience drills, jobs cannot request them.
		ChaosPlan: d.ChaosPlan,
		ChaosSeed: d.ChaosSeed,
	}
	if err := run.Validate(); err != nil {
		return resolved{}, fmt.Errorf("%w: %w", ErrInvalidJob, err)
	}
	key := fmt.Sprintf("%s|%s|p%d|s%d|%s", circuitID, run.Algo, run.Procs, run.Seed, run.NetPart)
	return resolved{
		spec:      spec,
		run:       run,
		key:       key,
		circuitID: circuitID,
		timeout:   time.Duration(spec.TimeoutMS) * time.Millisecond,
	}, nil
}

// Submit admits one job. The fast path serves a cache hit immediately;
// otherwise the job coalesces onto an identical in-flight computation
// (singleflight) or enters the queue. The returned ticket owns one unit
// of waiter interest: every Submit must be balanced by Ticket.Wait
// returning or Ticket.Release, and a job whose waiters all leave is
// cancelled rather than computed for nobody.
func (s *Server) Submit(ctx context.Context, spec JobSpec) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("service: submit: %w", err)
	}
	r, err := s.resolve(spec)
	if err != nil {
		s.stats.rejInvalid.Add(1)
		return nil, err
	}
	s.stats.submitted.Add(1)

	if b, ok := s.cache.get(r.key); ok {
		return &Ticket{hit: &JobResult{Key: r.key, CacheHit: true, Metrics: b}}, nil
	}

	s.mu.Lock()
	if j, ok := s.inflight[r.key]; ok {
		j.addWaiter()
		s.mu.Unlock()
		s.stats.coalesced.Add(1)
		return &Ticket{srv: s, job: j}, nil
	}
	if s.draining {
		s.mu.Unlock()
		s.stats.rejDraining.Add(1)
		return nil, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.stats.rejOverload.Add(1)
		return nil, ErrOverloaded
	}
	s.seq++
	j := &job{
		res:      r,
		priority: r.spec.Priority,
		seq:      s.seq,
		done:     make(chan struct{}),
		waiters:  1,
	}
	s.inflight[r.key] = j
	s.active++
	heap.Push(&s.queue, j)
	s.mu.Unlock()

	select {
	case s.kick <- struct{}{}:
	default:
	}
	return &Ticket{srv: s, job: j}, nil
}

// worker is one pool goroutine: pop the highest-priority job and run it,
// sleeping on the kick channel when the queue is empty. Cancelling ctx
// stops the pool; any jobs still queued at that point are failed with
// the cancellation error so no waiter is left hanging.
func (s *Server) worker(ctx context.Context) {
	defer s.workers.Done()
	for {
		j := s.pop()
		if j == nil {
			select {
			case <-ctx.Done():
				s.failQueued(ctx)
				return
			case <-s.kick:
				continue
			}
		}
		if err := ctx.Err(); err != nil {
			s.finish(j, nil, fmt.Errorf("service: worker stopping: %w", err))
			continue
		}
		s.runJob(ctx, j)
	}
}

// pop removes the front of the queue, re-kicking the pool if work
// remains (one kick wakes one worker; chaining propagates the wakeup).
func (s *Server) pop() *job {
	s.mu.Lock()
	var j *job
	if len(s.queue) > 0 {
		j = heap.Pop(&s.queue).(*job)
	}
	more := len(s.queue) > 0
	s.mu.Unlock()
	if more {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return j
}

// failQueued fails every job still queued when the pool stops.
func (s *Server) failQueued(ctx context.Context) {
	for {
		j := s.pop()
		if j == nil {
			return
		}
		s.finish(j, nil, fmt.Errorf("service: pool stopped before job ran: %w", context.Cause(ctx)))
	}
}

// runJob executes one job under a context bounded by the job timeout and
// cancellable by waiter abandonment.
func (s *Server) runJob(ctx context.Context, j *job) {
	jctx, cancel := context.WithCancel(ctx)
	if j.res.timeout > 0 {
		jctx, cancel = context.WithTimeout(ctx, j.res.timeout)
	}
	defer cancel()
	// begin publishes the cancel hook to the waiters; it refuses if every
	// waiter already disconnected while the job sat in the queue, in
	// which case nothing is routed.
	if !j.begin(cancel) {
		s.finish(j, nil, fmt.Errorf("service: job %s abandoned before start: %w", j.res.key, context.Canceled))
		return
	}

	s.stats.running.Add(1)
	res, err := s.compute(jctx, j)
	s.stats.running.Add(-1)
	if err != nil {
		s.finish(j, nil, err)
		return
	}
	b, err := CanonicalResult(res)
	if err != nil {
		s.finish(j, nil, err)
		return
	}
	// Degraded results (a chaos-killed rank forced the serial fallback)
	// are correct but carry the wrong identity for this key: caching one
	// would serve serial-fallback bytes for a parallel job key.
	if !res.Degraded {
		s.cache.put(j.res.key, b)
	}
	s.finish(j, &JobResult{Key: j.res.key, Metrics: b}, nil)
}

// compute loads the job's circuit and routes it, forwarding pipeline
// stage events to the job's subscribers. The circuit comes from the
// circuit cache, shared read-only by concurrent jobs (serial and net-wise
// route a Fork, the others block sub-circuits); a failed load is not cached.
func (s *Server) compute(ctx context.Context, j *job) (*metrics.Result, error) {
	c, ok := s.circuits.get(j.res.circuitID)
	if !ok {
		var err error
		if j.res.spec.Preset != "" {
			c, err = runcfg.LoadPreset(j.res.spec.Preset, j.res.spec.GenSeed)
		} else {
			c, err = circuit.ReadJSON(bytes.NewReader(j.res.spec.CircuitJSON))
		}
		if err != nil {
			return nil, fmt.Errorf("%w: loading circuit: %w", ErrInvalidJob, err)
		}
		s.circuits.put(j.res.circuitID, c)
	}
	if !j.res.run.Serial() && j.res.run.Procs > len(c.Rows) {
		return nil, fmt.Errorf("%w: procs %d exceeds the circuit's %d rows", ErrInvalidJob, j.res.run.Procs, len(c.Rows))
	}
	opts, err := j.res.run.Options()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidJob, err)
	}
	opts.Observers = append(opts.Observers, &jobObserver{srv: s, job: j})
	if j.res.run.Serial() {
		return parallel.RunBaseline(ctx, c, opts)
	}
	return parallel.Run(ctx, c, opts)
}

// finish completes a job: record the outcome, notify waiters, retire the
// singleflight entry, and account for the drain barrier.
func (s *Server) finish(j *job, result *JobResult, err error) {
	switch {
	case err == nil:
		s.stats.completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.stats.cancelled.Add(1)
	default:
		s.stats.failed.Add(1)
	}
	j.complete(result, err)

	s.mu.Lock()
	if s.inflight[j.res.key] == j {
		delete(s.inflight, j.res.key)
	}
	s.active--
	if s.draining && s.active == 0 && s.drained != nil {
		close(s.drained)
	}
	s.mu.Unlock()
}

// CanonicalResult serializes a routing result in the daemon's canonical
// form: the wall-clock fields (Elapsed, Phases) zeroed, everything else
// routing output. Two computations of the same job produce byte-identical
// canonical bytes — the property the result cache and the soak tier's
// one-shot-parity assertion are built on. The input is modified.
//
// The bytes are AppendJSON's, without WriteJSON's newline: the envelope
// frame writes them onto the wire as they are, so they must be compact
// JSON, as json.Marshal would have left them. The slice has no spare
// capacity: the result cache holds it for the daemon's life.
func CanonicalResult(res *metrics.Result) ([]byte, error) {
	res.Elapsed = 0
	res.Phases = nil
	// A wire is 70–80 bytes on the presets; the scratch rarely grows.
	b := res.AppendJSON(make([]byte, 0, 96*len(res.Wires)+16*len(res.ChannelDensity)+512))
	return append(make([]byte, 0, len(b)), b...), nil
}

// jobQueue is a priority heap: higher Priority first, submission order
// within a priority class — deterministic for a fixed submission
// sequence.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, k int) bool {
	if q[i].priority != q[k].priority {
		return q[i].priority > q[k].priority
	}
	return q[i].seq < q[k].seq
}
func (q jobQueue) Swap(i, k int) { q[i], q[k] = q[k], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

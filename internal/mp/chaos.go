package mp

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"parroute/internal/metrics"
	"parroute/internal/rng"
)

// Chaos wraps an engine with deterministic fault injection of the two
// faults a run must survive: delay (a send stalls for the plan's DelayBy
// before it leaves) and whole-rank crashes at a fixed send index. Delays
// are drawn per directed link from an RNG stream seeded by (plan seed,
// src, dst); because each directed link has exactly one sender, the draw
// sequence is fixed by that rank's program order and the schedule is
// byte-reproducible on every engine, regardless of goroutine interleaving.
//
// Every engine already delivers reliably and in send order per (sender,
// tag) — the guarantee MPI gives the paper's programs — so the wrapper
// injects no loss, duplication or reordering and needs nothing to undo
// them: a delayed send ships exactly the frame a fault-free send ships,
// and whenever no rank is lost the application observes the fault-free
// message sequence.
//
// A ChaosEngine keeps per-run state (event log, counters); run one
// workload per engine value and do not call Run concurrently.

// Plan is a deterministic fault schedule. The zero value injects nothing.
type Plan struct {
	// Seed selects the fault schedule; the same plan and seed reproduce
	// the identical event log.
	Seed uint64
	// Delay is the per-send probability, in [0, 1], that a send stalls.
	Delay float64
	// DelayBy is how long a delayed send stalls (default 100µs).
	DelayBy time.Duration
	// Crash maps rank -> 1-based send index at which the rank dies: the
	// rank is torn down just before its Nth application Send and every
	// survivor sees ErrRankLost.
	Crash map[int]int
}

func (p Plan) withDefaults() Plan {
	if p.DelayBy == 0 {
		p.DelayBy = 100 * time.Microsecond
	}
	return p
}

func (p Plan) validate() error {
	if p.Delay < 0 || p.Delay > 1 {
		return fmt.Errorf("mp: chaos plan: delay probability %v out of [0, 1]", p.Delay)
	}
	if p.DelayBy < 0 {
		return fmt.Errorf("mp: chaos plan: negative delayby %v", p.DelayBy)
	}
	for rank, n := range p.Crash {
		if rank < 0 {
			return fmt.Errorf("mp: chaos plan: crash rank %d is negative", rank)
		}
		if n < 1 {
			return fmt.Errorf("mp: chaos plan: crash index %d for rank %d must be >= 1", n, rank)
		}
	}
	return nil
}

// ParsePlan parses the -chaos-plan flag syntax: comma-separated key=value
// pairs with keys delay (probability), delayby (duration), and
// crash=RANK@N (repeatable). Example: "delay=0.10,crash=1@25". The empty
// string is the empty plan. The seed is set separately (it is a flag of
// its own).
func ParsePlan(s string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Plan{}, fmt.Errorf("mp: chaos plan: %q is not key=value", field)
		}
		var err error
		switch key {
		case "delay":
			p.Delay, err = strconv.ParseFloat(val, 64)
		case "delayby":
			p.DelayBy, err = time.ParseDuration(val)
		case "crash":
			rankStr, nStr, ok := strings.Cut(val, "@")
			if !ok {
				return Plan{}, fmt.Errorf("mp: chaos plan: crash wants RANK@N, got %q", val)
			}
			var rank, n int
			if rank, err = strconv.Atoi(rankStr); err == nil {
				n, err = strconv.Atoi(nStr)
			}
			if err == nil {
				if p.Crash == nil {
					p.Crash = map[int]int{}
				}
				p.Crash[rank] = n
			}
		default:
			return Plan{}, fmt.Errorf("mp: chaos plan: unknown key %q (want delay, delayby or crash)", key)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("mp: chaos plan: bad value for %s: %w", key, err)
		}
	}
	return p, p.validate()
}

// String renders the plan in ParsePlan syntax (seed excluded, defaults
// omitted).
func (p Plan) String() string {
	var parts []string
	if p.Delay > 0 {
		parts = append(parts, "delay="+strconv.FormatFloat(p.Delay, 'g', -1, 64))
	}
	if p.DelayBy != 0 {
		parts = append(parts, "delayby="+p.DelayBy.String())
	}
	ranks := make([]int, 0, len(p.Crash))
	for r := range p.Crash {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		parts = append(parts, fmt.Sprintf("crash=%d@%d", r, p.Crash[r]))
	}
	return strings.Join(parts, ",")
}

// FaultCounters tallies injected faults and real deadline misses. Safe
// for concurrent use; shared between the chaos wrapper and the transports
// (deadline misses).
type FaultCounters struct {
	Sends, Delays, DeadlineMisses, Crashes atomic.Int64
}

// Snapshot returns a plain-integer copy for reporting.
func (c *FaultCounters) Snapshot() metrics.FaultReport {
	return metrics.FaultReport{
		Sends:          c.Sends.Load(),
		Delays:         c.Delays.Load(),
		DeadlineMisses: c.DeadlineMisses.Load(),
		Crashes:        c.Crashes.Load(),
	}
}

// ChaosEngine injects a Plan's faults into an inner engine. Config.Engine
// builds one when Config.Chaos is set; run a workload, then read Snapshot
// and EventLog.
type ChaosEngine struct {
	inner    Engine
	plan     Plan
	counters FaultCounters

	procs      int
	links      []*chaosLink // [src*procs+dst]
	crashNotes []string     // one slot per rank, written only by that rank
}

// Snapshot returns the current fault tallies.
func (e *ChaosEngine) Snapshot() metrics.FaultReport { return e.counters.Snapshot() }

// chaosLink is the injector state of one directed link, touched only by
// the source rank — so no lock is needed.
type chaosLink struct {
	rng *rng.RNG
	log []string
}

// Run executes fn under fault injection. Per-run state is reset, so the
// same engine value must not run twice concurrently. Cancellation is the
// inner engine's: ctx passes straight through.
func (e *ChaosEngine) Run(ctx context.Context, procs int, fn func(Comm) error) (time.Duration, error) {
	plan := e.plan.withDefaults()
	if err := plan.validate(); err != nil {
		return 0, err
	}
	e.procs = procs
	e.links = make([]*chaosLink, procs*procs)
	e.crashNotes = make([]string, procs)
	for i := range e.links {
		// One independent stream per directed link, derived from the
		// plan seed with a splitmix-style odd-constant mix.
		e.links[i] = &chaosLink{rng: rng.New(plan.Seed + uint64(i+1)*0x9e3779b97f4a7c15)}
	}
	return e.inner.Run(ctx, procs, func(inner Comm) error {
		return fn(&cComm{e: e, plan: plan, inner: inner, rank: inner.Rank()})
	})
}

// EventLog returns the fault schedule the last run actually executed: one
// line per application send, grouped by directed link in the sender's
// program order, then the crash records. For a fixed plan and seed the
// log is byte-identical across runs and engines (for crash-free plans;
// with crashes, on the deterministic virtual engine).
func (e *ChaosEngine) EventLog() []string {
	var out []string
	for _, l := range e.links {
		out = append(out, l.log...)
	}
	for _, note := range e.crashNotes {
		if note != "" {
			out = append(out, note)
		}
	}
	return out
}

// cComm is the per-rank chaos communicator: a pass-through that may stall
// a send and dies at its planned send index.
type cComm struct {
	e       *ChaosEngine
	plan    Plan
	inner   Comm
	rank    int
	sent    int // application Send calls, for crash indexing
	crashed bool
}

func (c *cComm) Rank() int { return c.rank }
func (c *cComm) Size() int { return c.inner.Size() }

func (c *cComm) rankLostErr() error {
	return fmt.Errorf("mp: chaos: rank %d crashed by plan: %w", c.rank, ErrRankLost)
}

func (c *cComm) Send(to, tag int, v any) error {
	if c.crashed {
		return c.rankLostErr()
	}
	if tag < 0 {
		return fmt.Errorf("mp: chaos: tag %d is in the reserved engine range; user tags must be >= 0", tag)
	}
	if to < 0 || to >= c.inner.Size() {
		return c.inner.Send(to, tag, v) // standard out-of-range error
	}
	c.sent++
	if n, ok := c.plan.Crash[c.rank]; ok && c.sent >= n {
		return c.crash()
	}
	l := c.e.links[c.rank*c.e.procs+to]
	kind := "deliver"
	if l.rng.Float64() < c.plan.Delay {
		kind = "delay"
	}
	l.log = append(l.log, fmt.Sprintf("send %d->%d tag=%d %s", c.rank, to, tag, kind))
	c.e.counters.Sends.Add(1)
	if kind == "delay" {
		c.e.counters.Delays.Add(1)
		// Under the virtual engine the stall is charged to the worker's
		// measured compute span: simulated time moves, and no routing
		// decision ever reads a clock, so results stay deterministic.
		time.Sleep(c.plan.DelayBy)
	}
	return c.inner.Send(to, tag, v)
}

func (c *cComm) Recv(from, tag int) (any, error) {
	if c.crashed {
		return nil, c.rankLostErr()
	}
	return c.inner.Recv(from, tag)
}

func (c *cComm) Barrier() error {
	if c.crashed {
		return c.rankLostErr()
	}
	return c.inner.Barrier()
}

// crash kills this rank per the plan: the inner transport is told to tear
// the rank down (TCP closes its sockets so peers detect the loss), and
// every further operation fails with ErrRankLost.
func (c *cComm) crash() error {
	c.crashed = true
	c.e.counters.Crashes.Add(1)
	c.e.crashNotes[c.rank] = fmt.Sprintf("crash rank=%d at-send=%d", c.rank, c.sent)
	if k, ok := c.inner.(interface{ injectCrash() }); ok {
		k.injectCrash()
	}
	return c.rankLostErr()
}

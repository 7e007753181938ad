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

// Chaos wraps an engine with deterministic fault injection. Faults are
// drawn per directed link from an RNG stream seeded by (plan seed, src,
// dst); because each directed link has exactly one sender, the draw
// sequence is fixed by that rank's program order and the schedule is
// byte-reproducible on every engine, regardless of goroutine interleaving.
//
// The wrapper injects four message faults — drop (the send is retried
// with exponential backoff + jitter until the retry budget runs out),
// delay (the send stalls for the plan's delay), duplication (the message
// is transmitted twice), and reorder (the message is held back and
// released right after the next send on the same link, swapping the
// pair) — plus whole-rank crashes at a fixed send index. Every payload
// travels wrapped in a per-(sender, tag) sequence number; the receiving
// side drops duplicates and re-sorts held-back messages, so the
// application observes exactly the fault-free message sequence whenever
// no rank is lost. That is the delivery guarantee the chaos soak tier
// asserts: at-least-once transmission + dedup = effectively-once.
//
// A ChaosEngine keeps per-run state (event log, counters); run one
// workload per engine value and do not call Run concurrently.

// Plan is a deterministic fault schedule. The zero value injects nothing.
type Plan struct {
	// Seed selects the fault schedule; the same plan and seed reproduce
	// the identical event log.
	Seed uint64
	// Drop, Delay, Dup and Reorder are per-message fault probabilities;
	// each in [0, 1] and their sum must not exceed 1.
	Drop, Delay, Dup, Reorder float64
	// DelayBy is how long a delayed message stalls (default 100µs).
	DelayBy time.Duration
	// Crash maps rank -> 1-based send index at which the rank dies: the
	// rank is torn down just before its Nth application Send and every
	// survivor sees ErrRankLost.
	Crash map[int]int
	// MaxRetries bounds resends of a dropped message (default 12); when
	// the budget runs out Send fails with ErrDeadline.
	MaxRetries int
	// RetryBase and RetryCap shape the exponential backoff between
	// resends (defaults 25µs and 2ms).
	RetryBase, RetryCap time.Duration
}

func (p Plan) withDefaults() Plan {
	if p.DelayBy == 0 {
		p.DelayBy = 100 * time.Microsecond
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = 12
	}
	if p.RetryBase == 0 {
		p.RetryBase = 25 * time.Microsecond
	}
	if p.RetryCap == 0 {
		p.RetryCap = 2 * time.Millisecond
	}
	return p
}

func (p Plan) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"delay", p.Delay}, {"dup", p.Dup}, {"reorder", p.Reorder}} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("mp: chaos plan: %s probability %v out of [0, 1]", f.name, f.v)
		}
	}
	if sum := p.Drop + p.Delay + p.Dup + p.Reorder; sum > 1 {
		return fmt.Errorf("mp: chaos plan: fault probabilities sum to %v > 1", sum)
	}
	for rank, n := range p.Crash {
		if rank < 0 {
			return fmt.Errorf("mp: chaos plan: crash rank %d is negative", rank)
		}
		if n < 1 {
			return fmt.Errorf("mp: chaos plan: crash index %d for rank %d must be >= 1", n, rank)
		}
	}
	if p.DelayBy < 0 || p.MaxRetries < 0 || p.RetryBase < 0 || p.RetryCap < 0 {
		return fmt.Errorf("mp: chaos plan: negative duration or retry budget")
	}
	return nil
}

// ParsePlan parses the -chaos-plan flag syntax: comma-separated key=value
// pairs with keys drop, delay, dup, reorder (probabilities), delayby,
// backoff, cap (durations), retries (int), and crash=RANK@N (repeatable).
// Example: "drop=0.05,delay=0.10,crash=1@25". The empty string is the
// empty plan. The seed is set separately (it is a flag of its own).
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
		case "drop":
			p.Drop, err = strconv.ParseFloat(val, 64)
		case "delay":
			p.Delay, err = strconv.ParseFloat(val, 64)
		case "dup":
			p.Dup, err = strconv.ParseFloat(val, 64)
		case "reorder":
			p.Reorder, err = strconv.ParseFloat(val, 64)
		case "delayby":
			p.DelayBy, err = time.ParseDuration(val)
		case "backoff":
			p.RetryBase, err = time.ParseDuration(val)
		case "cap":
			p.RetryCap, err = time.ParseDuration(val)
		case "retries":
			p.MaxRetries, err = strconv.Atoi(val)
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
			return Plan{}, fmt.Errorf("mp: chaos plan: unknown key %q", key)
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
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if p.Drop > 0 {
		add("drop", strconv.FormatFloat(p.Drop, 'g', -1, 64))
	}
	if p.Delay > 0 {
		add("delay", strconv.FormatFloat(p.Delay, 'g', -1, 64))
	}
	if p.Dup > 0 {
		add("dup", strconv.FormatFloat(p.Dup, 'g', -1, 64))
	}
	if p.Reorder > 0 {
		add("reorder", strconv.FormatFloat(p.Reorder, 'g', -1, 64))
	}
	if p.DelayBy != 0 {
		add("delayby", p.DelayBy.String())
	}
	ranks := make([]int, 0, len(p.Crash))
	for r := range p.Crash {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		add("crash", fmt.Sprintf("%d@%d", r, p.Crash[r]))
	}
	if p.MaxRetries != 0 {
		add("retries", strconv.Itoa(p.MaxRetries))
	}
	if p.RetryBase != 0 {
		add("backoff", p.RetryBase.String())
	}
	if p.RetryCap != 0 {
		add("cap", p.RetryCap.String())
	}
	return strings.Join(parts, ",")
}

// FaultCounters tallies injected faults and recovery work. Safe for
// concurrent use; shared between the chaos wrapper and the transports
// (deadline misses).
type FaultCounters struct {
	Sends, Drops, Delays, Dups, Reorders     atomic.Int64
	Retries, Dedups, DeadlineMisses, Crashes atomic.Int64
}

// Snapshot returns a plain-integer copy for reporting.
func (c *FaultCounters) Snapshot() metrics.FaultReport {
	return metrics.FaultReport{
		Sends:          c.Sends.Load(),
		Drops:          c.Drops.Load(),
		Delays:         c.Delays.Load(),
		Dups:           c.Dups.Load(),
		Reorders:       c.Reorders.Load(),
		Retries:        c.Retries.Load(),
		Dedups:         c.Dedups.Load(),
		DeadlineMisses: c.DeadlineMisses.Load(),
		Crashes:        c.Crashes.Load(),
	}
}

// chaosMsg is the wire wrapper carrying the per-(sender, tag) sequence
// number that makes delivery idempotent. Its codec, flat pricing
// (8-byte Seq plus the wrapped payload's own flat price — so chaos runs
// cost what the application message costs), and registration are
// generated into mpwire_gen.go.
//
//mp:payload
type chaosMsg struct {
	Seq uint64
	V   any
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

// chaosLink is the injector state of one directed link. The rng, seq,
// stash and sendLog fields are touched only by the source rank; recvLog
// only by the destination rank — so no lock is needed.
type chaosLink struct {
	src, dst int
	rng      *rng.RNG
	seq      map[int]uint64 // next sequence number per tag (sender side)
	stash    *heldMsg       // reordered message awaiting release
	sendLog  []string
	recvLog  []string
}

type heldMsg struct {
	tag int
	msg chaosMsg
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
	for src := 0; src < procs; src++ {
		for dst := 0; dst < procs; dst++ {
			// One independent stream per directed link, derived from the
			// plan seed with a splitmix-style odd-constant mix.
			seed := plan.Seed + uint64(src*procs+dst+1)*0x9e3779b97f4a7c15
			e.links[src*procs+dst] = &chaosLink{
				src: src, dst: dst,
				rng: rng.New(seed),
				seq: map[int]uint64{},
			}
		}
	}
	return e.inner.Run(ctx, procs, func(inner Comm) error {
		cc := &cComm{e: e, plan: plan, inner: inner, rank: inner.Rank(), streams: map[streamKey]*recvStream{}}
		err := fn(cc)
		if err == nil && !cc.crashed {
			// Release any message still held for reordering so a peer
			// blocked on it is not stranded by our exit.
			err = cc.flushAll()
		}
		return err
	})
}

// EventLog returns the fault schedule the last run actually executed, as
// one line per injector event grouped by directed link. Send-side lines
// are appended in the sender's program order and receive-side lines in
// the receiver's, so for a fixed plan and seed the log is byte-identical
// across runs and engines (for crash-free plans; with crashes, on the
// deterministic virtual engine).
func (e *ChaosEngine) EventLog() []string {
	var out []string
	for _, l := range e.links {
		out = append(out, l.sendLog...)
		out = append(out, l.recvLog...)
	}
	for _, note := range e.crashNotes {
		if note != "" {
			out = append(out, note)
		}
	}
	return out
}

type streamKey struct{ src, tag int }

// recvStream restores the fault-free delivery order of one (sender, tag)
// stream: next is the sequence number the application expects; held holds
// messages that arrived early.
type recvStream struct {
	next uint64
	held map[uint64]any
}

// cComm is the per-rank chaos communicator.
type cComm struct {
	e       *ChaosEngine
	plan    Plan
	inner   Comm
	rank    int
	sent    int // application Send calls, for crash indexing
	crashed bool
	streams map[streamKey]*recvStream
}

func (c *cComm) Rank() int { return c.rank }
func (c *cComm) Size() int { return c.inner.Size() }

func (c *cComm) link(to int) *chaosLink { return c.e.links[c.rank*c.e.procs+to] }

func (c *cComm) rankLostErr() error {
	return fmt.Errorf("mp: chaos: rank %d crashed by plan: %w", c.rank, ErrRankLost)
}

type faultKind int

const (
	faultDeliver faultKind = iota
	faultDrop
	faultDelay
	faultDup
	faultReorder
)

func (k faultKind) String() string {
	switch k {
	case faultDrop:
		return "drop"
	case faultDelay:
		return "delay"
	case faultDup:
		return "dup"
	case faultReorder:
		return "reorder"
	}
	return "deliver"
}

func (l *chaosLink) draw(p Plan) faultKind {
	u := l.rng.Float64()
	switch {
	case u < p.Drop:
		return faultDrop
	case u < p.Drop+p.Delay:
		return faultDelay
	case u < p.Drop+p.Delay+p.Dup:
		return faultDup
	case u < p.Drop+p.Delay+p.Dup+p.Reorder:
		return faultReorder
	default:
		return faultDeliver
	}
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
	// Flush messages held back on other links first: a reorder may only
	// swap consecutive sends on the same link, never delay a message past
	// one of our operations elsewhere (which could deadlock the protocol).
	if err := c.flushExcept(to); err != nil {
		return err
	}
	l := c.link(to)
	seq := l.seq[tag]
	l.seq[tag] = seq + 1
	msg := chaosMsg{Seq: seq, V: v}
	c.e.counters.Sends.Add(1)

	for attempt := 0; ; attempt++ {
		kind := l.draw(c.plan)
		l.sendLog = append(l.sendLog, fmt.Sprintf("send %d->%d tag=%d seq=%d attempt=%d %s", c.rank, to, tag, seq, attempt, kind))
		switch kind {
		case faultDrop:
			c.e.counters.Drops.Add(1)
			if attempt >= c.plan.MaxRetries {
				return fmt.Errorf("mp: chaos: send %d->%d tag %d seq %d: dropped %d times, retry budget exhausted: %w",
					c.rank, to, tag, seq, attempt+1, ErrDeadline)
			}
			c.e.counters.Retries.Add(1)
			idle(backoff(l.rng, c.plan.RetryBase, c.plan.RetryCap, attempt))
			continue
		case faultDelay:
			c.e.counters.Delays.Add(1)
			idle(c.plan.DelayBy)
			return c.deliver(l, to, tag, msg)
		case faultDup:
			c.e.counters.Dups.Add(1)
			if err := c.deliver(l, to, tag, msg); err != nil {
				return err
			}
			return c.inner.Send(to, tag, msg) // the duplicate copy
		case faultReorder:
			c.e.counters.Reorders.Add(1)
			if l.stash == nil {
				l.stash = &heldMsg{tag: tag, msg: msg}
				return nil
			}
			// A message is already held: delivering the new one first and
			// then releasing the old is itself the reorder.
			return c.deliver(l, to, tag, msg)
		default:
			return c.deliver(l, to, tag, msg)
		}
	}
}

// deliver transmits msg and then releases any message held back on the
// same link, completing a reorder as a swap of adjacent sends.
func (c *cComm) deliver(l *chaosLink, to, tag int, msg chaosMsg) error {
	if err := c.inner.Send(to, tag, msg); err != nil {
		return err
	}
	return c.flushLink(l, to)
}

// flushLink releases the link's held-back message, if any.
func (c *cComm) flushLink(l *chaosLink, to int) error {
	if l.stash == nil {
		return nil
	}
	h := l.stash
	l.stash = nil
	l.sendLog = append(l.sendLog, fmt.Sprintf("send %d->%d tag=%d seq=%d release", c.rank, to, h.tag, h.msg.Seq))
	return c.inner.Send(to, h.tag, h.msg)
}

func (c *cComm) flushExcept(to int) error {
	for dst := 0; dst < c.e.procs; dst++ {
		if dst == to {
			continue
		}
		if err := c.flushLink(c.link(dst), dst); err != nil {
			return err
		}
	}
	return nil
}

func (c *cComm) flushAll() error {
	return c.flushExcept(-1)
}

func (c *cComm) Recv(from, tag int) (any, error) {
	if c.crashed {
		return nil, c.rankLostErr()
	}
	if tag < 0 {
		return nil, fmt.Errorf("mp: chaos: tag %d is in the reserved engine range; user tags must be >= 0", tag)
	}
	if from < 0 || from >= c.inner.Size() {
		return c.inner.Recv(from, tag) // standard out-of-range error
	}
	if err := c.flushAll(); err != nil {
		return nil, err
	}
	l := c.e.links[from*c.e.procs+c.rank]
	st := c.streams[streamKey{from, tag}]
	if st == nil {
		st = &recvStream{held: map[uint64]any{}}
		c.streams[streamKey{from, tag}] = st
	}
	for {
		if v, ok := st.held[st.next]; ok {
			delete(st.held, st.next)
			l.recvLog = append(l.recvLog, fmt.Sprintf("recv %d<-%d tag=%d seq=%d from-hold", c.rank, from, tag, st.next))
			st.next++
			return v, nil
		}
		raw, err := c.inner.Recv(from, tag)
		if err != nil {
			return nil, err
		}
		m, ok := raw.(chaosMsg)
		if !ok {
			return nil, fmt.Errorf("mp: chaos: message from rank %d tag %d arrived unwrapped as %T", from, tag, raw)
		}
		switch {
		case m.Seq < st.next:
			// A retry or duplicate of something already delivered.
			c.e.counters.Dedups.Add(1)
			l.recvLog = append(l.recvLog, fmt.Sprintf("recv %d<-%d tag=%d seq=%d dedup", c.rank, from, tag, m.Seq))
		case m.Seq > st.next:
			// Arrived early (its predecessor was reordered); hold it.
			st.held[m.Seq] = m.V
			l.recvLog = append(l.recvLog, fmt.Sprintf("recv %d<-%d tag=%d seq=%d hold", c.rank, from, tag, m.Seq))
		default:
			l.recvLog = append(l.recvLog, fmt.Sprintf("recv %d<-%d tag=%d seq=%d deliver", c.rank, from, tag, m.Seq))
			st.next++
			return m.V, nil
		}
	}
}

func (c *cComm) Barrier() error {
	if c.crashed {
		return c.rankLostErr()
	}
	if err := c.flushAll(); err != nil {
		return err
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

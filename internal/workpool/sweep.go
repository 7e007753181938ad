package workpool

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// Hull is the closed interval of axis indices — channels, rows — an op of
// an ordered sweep may read or write.
type Hull struct{ Lo, Hi int32 }

// minBandOps is the least number of ops a band must own: below it the
// goroutine starts and the hand-offs at the seams cost more than the other
// cores return, and the sweep runs as fewer bands — down to one. Measured
// on a two-core box, a two-band flip sweep breaks even near 5 000 ops a
// band, a step-5 sweep near 2 500, wire placement (one pass) near 15 000.
var minBandOps = 4096

// SetMinBandOpsForTest replaces that threshold until the returned function
// is called, so that tests of a sweep's clients can put seams into circuits
// small enough to compare exhaustively. It moves wall clock, never a result.
func SetMinBandOpsForTest(n int) (restore func()) {
	old := minBandOps
	minBandOps = n
	return func() { minBandOps = old }
}

// Sweep is the plan of an ordered band sweep: n ops, each confined to its
// Hull, that must take effect in a visit order, run on several goroutines
// with the serial result. The index axis is cut into contiguous bands of
// about equal op count; band k owns the ops whose Lo lies in it and they run
// in visit order, on one goroutine at a time. Order across bands is enforced
// only where two ops can conflict. At seam s (between bands s-1 and s) the
// ops owned below s whose Hi reaches band s ("crossing") and the ops owned
// at or above s whose Lo is no further than the furthest such Hi ("edge")
// are held to visit order against each other by two monotone counters; any
// two ops with intersecting hulls and different owners are a crossing and an
// edge op of some seam, so every index sees its reads and writes in the
// serial order. The earliest unexecuted op never waits, so the sweep cannot
// deadlock. Hulls are static, so one plan serves every pass over the ops.
type Sweep struct {
	n     int
	start []int32 // band k owns indices [start[k], start[k+1])
	reach []int32 // reach[s]: furthest Hi over the ops owned below seam s
	hulls []Hull
	class []int16 // op's owner band k, as ^k when it is in some seam's set; nil at one band
}

// NewSweep plans a sweep of n ops over the indices [0, axis) for up to
// workers goroutines; hull(i) is op i's hull, within the axis, read on as
// many goroutines as the sweep gets bands. A sweep too short to amortise its
// hand-offs gets one band and hull is never called. Otherwise reserve is
// called once, before any op runs, with the index range the hulls cover:
// state that is created on first write must exist by then, because two bands
// may write it side by side.
func NewSweep(ctx context.Context, workers, n, axis int, hull func(op int) Hull, reserve func(lo, hi int)) (*Sweep, error) {
	bands := min(workers, n/minBandOps, axis, math.MaxInt16)
	if bands <= 1 {
		return &Sweep{n: n, start: []int32{0, int32(axis)}}, nil
	}
	s := &Sweep{n: n, start: make([]int32, bands+1), reach: make([]int32, bands),
		hulls: make([]Hull, n), class: make([]int16, n)}
	// Per Lo, the number of ops and their furthest Hi — all the cut and the
	// seams' reaches need — gathered per worker while the hulls are read.
	ops, far := make([]int32, bands*axis), make([]int32, bands*axis)
	grain := Grain(n, bands)
	err := DoChunks(ctx, bands, n, grain, func(w, lo, hi int) error {
		ops, far := ops[w*axis:][:axis], far[w*axis:][:axis]
		for i := lo; i < hi; i++ {
			h := hull(i)
			s.hulls[i] = h
			ops[h.Lo]++
			far[h.Lo] = max(far[h.Lo], h.Hi)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Band k starts at the first index with k/bands of the ops below it (a
	// band the distribution leaves no index for is empty), and the reach of
	// its seam is the furthest Hi among the ops that start below it.
	bandOf := make([]int16, axis)
	k, below, lo, hi := 0, 0, axis, int32(-1)
	s.reach[0] = -1 // band 0 has no seam below it
	for idx := range bandOf {
		for k+1 < bands && below*bands >= (k+1)*n {
			k++
			s.start[k], s.reach[k] = int32(idx), hi
		}
		bandOf[idx] = int16(k)
		for w := 0; w < bands; w++ {
			if c := ops[w*axis+idx]; c > 0 {
				below, lo, hi = below+int(c), min(lo, idx), max(hi, far[w*axis+idx])
			}
		}
	}
	for k++; k <= bands; k++ {
		s.start[k] = int32(axis)
	}
	err = DoChunks(ctx, bands, n, grain, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			h := s.hulls[i]
			k := bandOf[h.Lo]
			if bandOf[h.Hi] > k || h.Lo <= s.reach[k] {
				k = ^k
			}
			s.class[i] = k
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	reserve(lo, int(hi))
	return s, nil
}

// Bands is the number of goroutines Run uses, and the bound of the band
// index it hands to do.
func (s *Sweep) Bands() int { return len(s.start) - 1 }

// The two kinds of op in a seam's set.
const (
	crossing = iota
	edge
)

// kindAt is what an op owned by band owner is at seam b of its set.
func kindAt(b, owner int) int {
	if b > owner {
		return crossing
	}
	return edge
}

// seam is the hand-off state of one seam during a Run: how many of its
// crossing and of its edge ops have completed.
type seam struct {
	done [2]atomic.Int32
	_    Pad
}

// The states of a band during a Run.
const (
	idle int32 = iota // no goroutine is on it
	busy
	finished
)

// bandRun is the resumable walk of one band: whoever moves state from idle
// to busy owns p and seen until it stores state again.
type bandRun struct {
	state atomic.Int32
	p     int        // next position in the order
	seen  [][2]int32 // per seam and kind, the ops passed before p
	_     Pad
}

// sweepRun is the shared state of one Run.
type sweepRun struct {
	seams []seam
	bands []bandRun
	left  atomic.Int32 // bands not finished
	abort atomic.Bool  // a goroutine gave up: release the others
}

// Run executes do(band, op) for every op, in the given visit order (a
// permutation of [0, n); nil is 0, 1, …) wherever order can matter; no two
// calls with the same band overlap, so band indexes per-band scratch. It
// checks ctx every 4096 ops per band and whenever a band stalls; a cancelled
// ctx or an error from do releases every goroutine, all are joined, and the
// error (ctx's wrapped) is returned. One band is a plain in-order loop on
// the calling goroutine.
func (s *Sweep) Run(ctx context.Context, order []int, do func(band, op int) error) error {
	n := s.Bands()
	run := &sweepRun{seams: make([]seam, n), bands: make([]bandRun, n)}
	run.left.Store(int32(n))
	for b := range run.bands {
		run.bands[b].seen = make([][2]int32, n)
	}
	return DoChunks(ctx, n, n, 1, func(_, k, _ int) error {
		return s.work(ctx, run, k, order, do)
	})
}

// work is one of the Run's goroutines, the k-th. It advances band k for as
// long as that band can move; when the band stalls at a seam, it advances
// any other band no goroutine is on. A goroutine that starts late or has
// lost its core therefore costs the sweep its share of the parallelism and
// stalls nobody: the others walk its band for it, one of them alone if need
// be. With every unfinished band taken or stalled it spins briefly for the
// peer that is a few ops behind, then yields, then sleeps, so that a peer
// sharing this core, or this processor, gets to run.
func (s *Sweep) work(ctx context.Context, run *sweepRun, k int, order []int, do func(band, op int) error) error {
	for stalled := 0; run.left.Load() > 0; stalled++ {
		if run.abort.Load() || ctx.Err() != nil {
			return run.giveUp(ctx)
		}
		for i := range run.bands {
			b := (k + i) % len(run.bands)
			br := &run.bands[b]
			if br.state.Load() != idle || !br.state.CompareAndSwap(idle, busy) {
				continue
			}
			from := br.p
			err := s.advance(ctx, run, b, order, do)
			if err != nil {
				run.abort.Store(true)
				return err
			}
			if br.p > from {
				stalled = 0
			}
			if br.p < s.n {
				br.state.Store(idle)
			} else {
				br.state.Store(finished)
				run.left.Add(-1)
			}
		}
		switch {
		case stalled < 64:
		case stalled < 1024:
			runtime.Gosched()
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	return nil
}

// advance walks band b from where it stopped until it finishes or stalls:
// it runs the band's ops, and counts, per seam, the crossing and edge ops it
// passes — the band's own and the other bands' — which is the value the
// opposite counter must have reached before an op of that seam may run; an
// own op that must wait is a stall. Band-local ops touch no atomic.
func (s *Sweep) advance(ctx context.Context, run *sweepRun, b int, order []int, do func(band, op int) error) error {
	br := &run.bands[b]
	p, seen := br.p, br.seen
	defer func() { br.p = p }()
	for ; p < s.n; p++ {
		if p&4095 == 0 && (run.abort.Load() || ctx.Err() != nil) {
			return run.giveUp(ctx)
		}
		op := p
		if order != nil {
			op = order[p]
		}
		c := b
		if s.class != nil {
			c = int(s.class[op])
		}
		if c >= 0 {
			if c == b {
				if err := do(b, op); err != nil {
					return err
				}
			}
			continue
		}
		// A seam op crosses the seams above its owner while the band starts
		// at or below its Hi, and is an edge op of its owner's seam and
		// those below it while their reach covers its Lo (if a lower seam's
		// reach does, so does every seam's up to the owner). It runs once
		// the ops of the opposite kind that precede it have completed.
		owner, h := ^c, s.hulls[op]
		top, bottom := owner, owner+1
		for top+1 < len(run.seams) && s.start[top+1] <= h.Hi {
			top++
		}
		for bottom > 1 && s.reach[bottom-1] >= h.Lo {
			bottom--
		}
		if owner == b {
			for sm := bottom; sm <= top; sm++ {
				if other := 1 - kindAt(sm, owner); run.seams[sm].done[other].Load() < seen[sm][other] {
					return nil
				}
			}
			if err := do(b, op); err != nil {
				return err
			}
		}
		for sm := bottom; sm <= top; sm++ {
			kind := kindAt(sm, owner)
			seen[sm][kind]++
			if owner == b {
				run.seams[sm].done[kind].Add(1)
			}
		}
	}
	return nil
}

// giveUp marks the run aborted and returns what ended it as far as this
// goroutine knows: ctx's error, or nil when a peer's error did.
func (r *sweepRun) giveUp(ctx context.Context) error {
	r.abort.Store(true)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("workpool: %w", err)
	}
	return nil
}

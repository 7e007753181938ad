package route

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/geom"
	"parroute/internal/grid"
	"parroute/internal/metrics"
	"parroute/internal/pipeline"
	"parroute/internal/rng"
	"parroute/internal/steiner"
	"parroute/internal/workpool"
)

// Router carries the state of one TWGR run. The phases mutate the attached
// circuit (feedthrough cells are physically inserted) only through writers
// that build fresh arrays: pass a Fork to keep the original, as Route does.
type Router struct {
	C    *circuit.Circuit
	Opt  Options
	Rand *rng.RNG

	Grid *grid.Grid
	Segs []PlacedSeg
	// FtPinsByRow holds the not-yet-bound feedthrough pin IDs per row
	// between insertion and assignment.
	FtPinsByRow [][]int
	// Wires is what step 4 emits: the channel wires density, step 5 and
	// Verify read.
	Wires []metrics.Wire

	CoarseFlips  int
	SwitchFlips  int
	ForcedEdges  int
	InsertedFts  int
	ExtraFts     int // feedthroughs inserted late during assignment (should stay 0)
	UnboundFts   int // inserted feedthroughs never bound to a net (should stay 0)
	switchableWs int
	occ          *Occupancy // step 4's finished occupancy, kept for step 5
}

// NewRouter prepares a router over the given circuit. The circuit is
// mutated by the routing phases; a Fork keeps its parent as it was.
func NewRouter(c *circuit.Circuit, opt Options) *Router {
	opt.Normalize()
	return &Router{C: c, Opt: opt, Rand: rng.New(opt.Seed)}
}

// Route runs the full five-step pipeline on a Fork of c and returns the
// result; c is left untouched. Cancelling ctx stops the run at the next
// stage boundary with an error wrapping ctx.Err().
func Route(ctx context.Context, c *circuit.Circuit, opt Options) (*metrics.Result, error) {
	rt := NewRouter(c.Fork(), opt)
	return rt.Run(ctx)
}

// Stages returns the serial TWGR pipeline: the five paper steps (step 2
// contributes both the coarse sweep and feedthrough insertion) as named
// pipeline stages. The names are canonical — the parallel drivers reuse
// them for the identical steps so per-stage records are comparable across
// algorithms.
func (rt *Router) Stages() []pipeline.Stage {
	return []pipeline.Stage{
		pipeline.Func("steiner", func(ctx context.Context, s *pipeline.Session) error {
			if err := rt.BuildTrees(ctx); err != nil {
				return err
			}
			s.Count("segments", int64(len(rt.Segs)))
			return nil
		}),
		pipeline.Func("coarse", func(ctx context.Context, s *pipeline.Session) error {
			if err := rt.CoarseRoute(ctx); err != nil {
				return err
			}
			s.Count("coarse-flips", int64(rt.CoarseFlips))
			return nil
		}),
		pipeline.Func("ft-insert", func(_ context.Context, s *pipeline.Session) error {
			if err := rt.InsertFeedthroughs(); err != nil {
				return err
			}
			s.Count("inserted-fts", int64(rt.InsertedFts))
			return nil
		}),
		pipeline.Func("ft-assign", func(ctx context.Context, s *pipeline.Session) error {
			if err := rt.AssignFeedthroughs(ctx); err != nil {
				return err
			}
			s.Count("extra-fts", int64(rt.ExtraFts))
			return nil
		}),
		pipeline.Func("connect", func(ctx context.Context, s *pipeline.Session) error {
			if err := rt.ConnectNets(ctx); err != nil {
				return err
			}
			s.Count("wires", int64(len(rt.Wires)))
			s.Count("forced-edges", int64(rt.ForcedEdges))
			return nil
		}),
		pipeline.Func("switch-opt", func(ctx context.Context, s *pipeline.Session) error {
			if err := rt.OptimizeSwitchable(ctx); err != nil {
				return err
			}
			s.Count("switch-flips", int64(rt.SwitchFlips))
			return nil
		}),
	}
}

// Run executes all stages in order under ctx and returns the finalized
// result. Extra observers (tracing, benchmarking) join the built-in phase
// recorder; they cannot affect routing output.
func (rt *Router) Run(ctx context.Context, obs ...pipeline.Observer) (*metrics.Result, error) {
	rec := pipeline.NewPhaseRecorder()
	s := pipeline.NewSession(append([]pipeline.Observer{rec}, obs...)...)
	if err := pipeline.Run(ctx, s, rt.Stages()...); err != nil {
		return nil, err
	}
	res := rt.Result("twgr-serial", 1, rec.Total())
	res.Phases = rec.Phases()
	return res, nil
}

// BuildTrees is step 1: the approximate Steiner tree of every net,
// flattened into placed segments with resolved channel access. Nets fan
// out over Opt.Workers goroutines: a k-pin net contributes exactly k-1
// segments (true for both the Prim and the large-net row-chain
// constructions), so a prefix sum over degrees gives every net an exact
// output slot in one segment arena — no reduction step, and the result is
// byte-identical at every worker count.
func (rt *Router) BuildTrees(ctx context.Context) error {
	nets := rt.C.Nets
	off := make([]int, len(nets)+1)
	for n := range nets {
		off[n+1] = off[n]
		if k := len(rt.C.NetPins(n)); k >= 2 {
			off[n+1] += k - 1
		}
	}
	total := off[len(nets)]
	segs := slices.Grow(rt.Segs[:0], total)[:total]
	workers := rt.Opt.Workers
	builders := make([]treeBuilder, geom.Max(workers, 1))
	err := workpool.DoChunks(ctx, workers, len(nets), workpool.Grain(len(nets), workers),
		func(w, lo, hi int) error {
			b := &builders[w]
			for n := lo; n < hi; n++ {
				if off[n+1] == off[n] {
					continue
				}
				b.segBuf = b.b.AppendNet(b.segBuf[:0], rt.C, n)
				out := segs[off[n]:off[n+1]]
				if len(b.segBuf) != len(out) {
					// The k-1 invariant is what makes the slots exact; a
					// violation would silently corrupt neighboring nets.
					return fmt.Errorf("route: net %d built %d segments, want %d",
						n, len(b.segBuf), len(out))
				}
				for i := range b.segBuf {
					out[i] = Place(rt.C, b.segBuf[i])
				}
			}
			return nil
		})
	if err != nil {
		return fmt.Errorf("route: steiner: %w", err)
	}
	rt.Segs = segs
	return nil
}

// treeBuilder is one worker's reusable step-1 scratch.
type treeBuilder struct {
	b      steiner.Builder
	segBuf []steiner.Segment
	_      workpool.Pad
}

// CoarseRoute is step 2: load every segment into the coarse grid at its
// initial bend, then sweep the segments in random order flipping L
// orientations whenever that lowers congestion + feedthrough cost.
//
// The load's adds commute, so it is cut by channel: each of up to
// Opt.Workers goroutines walks the segments and applies the runs that land
// in its range, and the ranges meet at slab boundaries, so no two of them
// create the same slab.
func (rt *Router) CoarseRoute(ctx context.Context) error {
	width := rt.Opt.GridWidth
	if width <= 0 {
		width = rt.C.CoreWidth()
	}
	g := grid.New(len(rt.C.Rows), width, grid.ColWidth)
	rt.Grid = g
	slabs := (g.Channels + grid.BandRows - 1) / grid.BandRows
	per := (slabs + rt.Opt.Workers - 1) / rt.Opt.Workers
	err := workpool.DoChunks(ctx, rt.Opt.Workers, slabs, per, func(_, lo, hi int) error {
		lo, hi = lo*grid.BandRows, hi*grid.BandRows
		for i := range rt.Segs {
			if ps := &rt.Segs[i]; int(ps.CP) < hi && int(ps.CQ) >= lo { // every run lies in channels CP..CQ
				addRuns(g, ps.CurrentRuns(), 1, lo, hi)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("route: coarse: %w", err)
	}
	n, hull, flip, err := BendFlips(ctx, rt.Opt.Workers, g, rt.Segs)
	if err == nil {
		var flips int
		flips, err = sweepFlips(ctx, rt.Opt.Workers, g.Channels, g.Reserve, rt.Rand, rt.Opt.CoarsePasses, n, hull, flip)
		rt.CoarseFlips += flips
	}
	if err != nil {
		return fmt.Errorf("route: coarse: %w", err)
	}
	return nil
}

// sweepFlips is how steps 2 and 5 visit their n flip candidates: up to passes
// ordered band sweeps (workpool.Sweep over the flips' hulls on a rows-row
// axis, on up to workers goroutines), each in a fresh random order — one
// PermInto per pass, on the calling goroutine — until a pass flips nothing.
// flip decides candidate i and reports whether it flipped. It returns the
// flips taken.
func sweepFlips(ctx context.Context, workers, rows int, reserve func(lo, hi int), r *rng.RNG, passes int,
	n int, hull func(i int) workpool.Hull, flip func(i int) bool) (int, error) {

	sw, err := workpool.NewSweep(ctx, workers, n, rows, hull, reserve)
	if err != nil {
		return 0, err
	}
	flips := make([]struct {
		n int
		_ workpool.Pad
	}, sw.Bands())
	perm := make([]int, n)
	done := 0
	for pass := 0; pass < passes; pass++ {
		r.PermInto(perm)
		err := sw.Run(ctx, perm, func(band, i int) error {
			if flip(i) {
				flips[band].n++
			}
			return nil
		})
		before := done
		done = 0
		for b := range flips {
			done += flips[b].n
		}
		if err != nil || done == before {
			return done, err
		}
	}
	return done, nil
}

// BendFlips is what a step-2 flip is: the n segments of segs with a bend
// choice, the hull of flip i, and flip, which turns candidate i's L when that
// lowers congestion + feedthrough cost and reports whether it did. g must
// already contain all segments. How a pass visits them is the caller's:
// CoarseRoute and the net-wise driver both execute this one body. Listing the
// candidates is a pass over every segment and runs on up to workers
// goroutines (workpool.Collect); the only error is ctx's. A flip reads its
// span and columns off the segment: a per-candidate copy of them measured no
// faster and was one more array to build and to miss in.
//
// Flip deltas are evaluated incrementally: with the bend at one endpoint
// the horizontal span always lies whole in the far endpoint's channel
// (RunsFor leaves the near run empty), so a flip moves the full span
// between CP and CQ and the vertical run between the two endpoint columns.
// Grid.SpanCost/VertMoveCost price that in one walk without mutating the
// grid — the same value a remove/price-both/re-add evaluation produces. The
// per-feedthrough base cost cancels: both orientations cross the same rows.
//
// A flip reads and writes density channels CP and CQ and feedthrough rows
// CP..CQ-1 and nothing else, which makes [CP, CQ] its hull: flips in
// different row bands can run side by side with the serial outcome.
func BendFlips(ctx context.Context, workers int, g *grid.Grid, segs []PlacedSeg) (n int, hull func(i int) workpool.Hull, flip func(i int) bool, err error) {
	bent, err := workpool.Collect(ctx, workers, len(segs), func(i int) bool {
		return segs[i].HasBend() && segs[i].XP != segs[i].XQ
	})
	hull = func(i int) workpool.Hull {
		ps := &segs[bent[i]]
		return workpool.Hull{Lo: ps.CP, Hi: ps.CQ}
	}
	flip = func(i int) bool {
		ps := &segs[bent[i]]
		cp, cq := int(ps.CP), int(ps.CQ)
		span := geom.NewInterval(int(ps.XP), int(ps.XQ))
		chFrom, chTo := cp, cq
		fromCol, toCol := g.ColOf(int(ps.XQ)), g.ColOf(int(ps.XP))
		if ps.BendAtP {
			chFrom, chTo = cq, cp
			fromCol, toCol = toCol, fromCol
		}
		delta := g.SpanCost(chFrom, chTo, span) +
			g.VertMoveCost(cp, cq-1, fromCol, toCol)
		if delta >= 0 {
			return false
		}
		g.MoveWire(chFrom, chTo, span)
		g.MoveVert(cp, cq-1, fromCol, toCol)
		ps.BendAtP = !ps.BendAtP
		return true
	}
	return len(bent), hull, flip, err
}

// InsertFeedthroughs is the tail of step 2: realize the grid's feedthrough
// demand as physical feedthrough cells, then refresh segment geometry
// (insertion shifts cells and the pins on them).
func (rt *Router) InsertFeedthroughs() error {
	fts, inserted, err := InsertGridFeedthroughs(rt.C, rt.Grid, 0, rt.Grid.Rows-1, rt.Opt.Workers)
	if err != nil {
		return err
	}
	rt.FtPinsByRow = fts
	rt.InsertedFts += inserted
	if inserted > 0 { // otherwise no cell moved
		RefreshSegs(rt.C, rt.Segs, rt.Opt.Workers)
	}
	return nil
}

// InsertGridFeedthroughs inserts the feedthrough cells g demands in rows
// lo..hi of c — per row and column, demand-many at the column's center,
// left to right — and returns the new pin IDs per row (indexed by row over
// the whole circuit) plus their count. Rows are independent, so the
// insertion fans out on up to workers goroutines; pin and cell IDs are the
// ones inserting one by one in (row, column) order would assign.
func InsertGridFeedthroughs(c *circuit.Circuit, g *grid.Grid, lo, hi, workers int) (ftByRow [][]int, inserted int, err error) {
	off := make([]int, len(c.Rows)+1)
	for row := range c.Rows {
		off[row+1] = off[row]
		if row >= lo && row <= hi {
			for col := 0; col < g.Cols; col++ {
				off[row+1] += g.FtDemand(row, col)
			}
		}
	}
	inserted = off[len(c.Rows)]
	xs := make([]int, 0, inserted)
	for row := lo; row <= hi; row++ {
		for col := 0; col < g.Cols; col++ {
			for d := g.FtDemand(row, col); d > 0; d-- {
				xs = append(xs, g.ColCenter(col))
			}
		}
	}
	first, err := c.InsertFeedthroughRows(off, xs, func(rows int, walk func(r int)) {
		// An insertion is all or nothing, so it is not cancellable: the
		// walk cannot fail and the background context never ends.
		_ = workpool.Do(context.Background(), workers, rows, func(_, r int) error {
			walk(r)
			return nil
		})
	})
	if err != nil {
		return nil, 0, fmt.Errorf("route: ft-insert: %w", err)
	}
	// Request i produced pin first+i, so the request array, once consumed,
	// is the backing array of the per-row pin lists.
	for i := range xs {
		xs[i] = first + i
	}
	ftByRow = make([][]int, len(c.Rows))
	for row := lo; row <= hi; row++ {
		ftByRow[row] = xs[off[row]:off[row+1]:off[row+1]]
	}
	return ftByRow, inserted, nil
}

// RefreshSegs re-reads the segments' endpoint positions from c after an
// insertion shifted cells, on up to workers goroutines. It belongs to the
// insertion it follows and is as little cancellable (see
// InsertGridFeedthroughs): the body cannot fail and the background context
// never ends.
func RefreshSegs(c *circuit.Circuit, segs []PlacedSeg, workers int) {
	_ = workpool.DoChunks(context.Background(), workers, len(segs), workpool.Grain(len(segs), workers), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			segs[i].XP, segs[i].XQ = c.Pins[segs[i].PinAtP].X, c.Pins[segs[i].PinAtQ].X
		}
		return nil
	})
}

// crossing is one (segment, row) feedthrough need during assignment. Its
// fields are a PlacedSeg's, so int32 holds them (circuit.MaxCoord).
type crossing struct {
	net int32
	x   int32
	seg int32
}

// AssignFeedthroughs is step 3: per row, bind each segment crossing the
// row to a concrete feedthrough pin, matching both sides in x order (the
// order-preserving matching minimizes total displacement). Binding a pin
// attaches it to the segment's net, which makes it a step-4 node.
//
// The crossings live in one CSR arena (crossingArena), and the per-row
// sorts fan out over Opt.Workers: each row's slices are disjoint, every
// comparator carries a full tiebreak, and the binding itself replays
// serially in row order, so the pin permutation is byte-identical at every
// worker count.
func (rt *Router) AssignFeedthroughs(ctx context.Context) error {
	arena, rowOff, err := rt.crossingArena(ctx)
	if err != nil {
		return fmt.Errorf("route: ft-assign: %w", err)
	}
	err = workpool.DoChunks(ctx, rt.Opt.Workers, len(rt.C.Rows), 1, func(_, lo, hi int) error {
		for row := lo; row < hi; row++ {
			crossings := arena[rowOff[row]:rowOff[row+1]]
			slices.SortFunc(crossings, func(a, b crossing) int {
				if a.x != b.x {
					return cmp.Compare(a.x, b.x)
				}
				if a.net != b.net {
					return cmp.Compare(a.net, b.net)
				}
				// Two same-net segments can cross a row at the same x; the
				// segment index makes the order (and thus the pin binding)
				// independent of sort internals.
				return cmp.Compare(a.seg, b.seg)
			})
			SortFts(rt.C, rt.FtPinsByRow[row])
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("route: ft-assign: %w", err)
	}
	// Every crossing binds one feedthrough pin to its net, in this order:
	// each net lists its own pins first, then its binds in binding order.
	pins, nets := make([]int32, len(arena)), make([]int32, len(arena))
	for row := range rt.C.Rows {
		crossings := arena[rowOff[row]:rowOff[row+1]]
		fts := rt.FtPinsByRow[row]
		for i, cr := range crossings {
			var pinID int
			if i < len(fts) {
				pinID = fts[i]
			} else {
				// Demand bookkeeping failed to cover this crossing;
				// recover by inserting one more feedthrough here.
				pinID = rt.C.InsertFeedthrough(row, int(cr.x), circuit.NoNet) //lint:allow forbidden-call step-3 overflow: one feedthrough the demand estimate missed
				rt.ExtraFts++
				rt.InsertedFts++
			}
			k := rowOff[row] + i
			pins[k], nets[k] = int32(pinID), cr.net
		}
		if len(fts) > len(crossings) {
			rt.UnboundFts += len(fts) - len(crossings)
		}
		rt.FtPinsByRow[row] = nil
	}
	rt.C.BindPins(pins, nets)
	if rt.ExtraFts > 0 {
		RefreshSegs(rt.C, rt.Segs, rt.Opt.Workers)
	}
	return nil
}

// crossingArena lists every (segment, row) crossing, row r's at
// arena[rowOff[r]:rowOff[r+1]] in segment order.
//
// The segments are cut into one contiguous chunk per worker: the chunks
// count their crossings per row side by side, a prefix sum over (row, chunk)
// turns every count into the chunk's cursor in that row, and the same loop
// then fills. Chunks are ascending segment ranges, so row by row the arena
// is what one serial fill leaves, at every worker count.
func (rt *Router) crossingArena(ctx context.Context) (arena []crossing, rowOff []int, err error) {
	segs, rows := rt.Segs, len(rt.C.Rows)
	per := geom.Max(1, (len(segs)+rt.Opt.Workers-1)/rt.Opt.Workers)
	chunks := (len(segs) + per - 1) / per
	cur := make([]int, chunks*rows) // chunk c's row r: count, then cursor
	pass := func(_, lo, hi int) error {
		cur := cur[lo/per*rows:][:rows]
		for i := lo; i < hi; i++ {
			runs := segs[i].CurrentRuns()
			for row := runs.VLo; runs.HasVert() && row <= runs.VHi; row++ {
				if arena != nil {
					arena[cur[row]] = crossing{net: segs[i].Net, x: int32(runs.VCol), seg: int32(i)}
				}
				cur[row]++
			}
		}
		return nil
	}
	if err := workpool.DoChunks(ctx, rt.Opt.Workers, len(segs), per, pass); err != nil {
		return nil, nil, err
	}
	rowOff = make([]int, rows+1)
	for r := 0; r < rows; r++ {
		rowOff[r+1] = rowOff[r]
		for c := 0; c < chunks; c++ {
			k := &cur[c*rows+r]
			*k, rowOff[r+1] = rowOff[r+1], rowOff[r+1]+*k
		}
	}
	arena = make([]crossing, rowOff[rows]) // not nil, even when empty: the second pass fills
	if err := workpool.DoChunks(ctx, rt.Opt.Workers, len(segs), per, pass); err != nil {
		return nil, nil, err
	}
	return arena, rowOff, nil
}

// SortFts orders one row's unbound feedthrough pins of c by (x, pin ID).
// Same-x feedthrough pins are interchangeable for routing, but the pin ID
// breaks the tie so the binding permutation is deterministic rather than
// sort-internal. A pin's x is int32 and its ID, its index, is in [0,
// MaxCoord], so x<<32 | ID is an int64 key in that order, comparator-free.
func SortFts(c *circuit.Circuit, fts []int) {
	for i, pid := range fts {
		fts[i] = int(c.Pins[pid].X)<<32 | pid
	}
	slices.Sort(fts)
	for i, k := range fts {
		fts[i] = k & (1<<32 - 1)
	}
}

// ConnectNets is step 4: per net, the adjacency-restricted MST over its
// pins and bound feedthroughs produces the final channel wires, each
// switchable wire starting in the channel that is cheaper at the moment it
// is placed; step 5 then iterates on those choices. The body is the free
// function ConnectNets, which the whole-net parallel drivers run too; here
// a net's nodes are read off its pins into the building worker's scratch
// and live no longer than its tree.
//
// The serial router (Opt.GridWidth 0) keeps the finished occupancy for
// OptimizeSwitchable: it is, cell for cell, the table step 5 starts from.
func (rt *Router) ConnectNets(ctx context.Context) error {
	rt.occ = nil
	c, pins := rt.C, rt.C.Pins
	// Never narrower than the fixed grid extent: a block-sized sub-circuit
	// has no foreign rows to widen it, and its fake pins sit at full-design x.
	occ := NewOccupancy(rt.C.NumChannels(), geom.Max(rt.C.CoreWidth(), rt.Opt.GridWidth), grid.ColWidth)
	wires, forced, err := ConnectNets(ctx, rt.Opt.Workers, len(c.Nets),
		func(n int) int { return len(c.NetPins(n)) },
		func(n int, nodes []Node) []Node {
			for i, pid := range c.NetPins(n) {
				p := &pins[pid]
				nodes[i] = Node{X: p.X, Row: p.Row, Side: p.Side}
			}
			return nodes
		}, occ)
	if err != nil {
		return err
	}
	rt.Wires, rt.ForcedEdges = wires, forced
	if rt.Opt.GridWidth == 0 {
		rt.occ = occ
	}
	return nil
}

// OptimizeSwitchable is step 5 over the wires produced by ConnectNets,
// against the occupancy ConnectNets kept, or one built from the wires.
func (rt *Router) OptimizeSwitchable(ctx context.Context) error {
	occ := rt.occ
	rt.occ = nil
	if occ == nil {
		occ = NewOccupancy(rt.C.NumChannels(), rt.C.CoreWidth(), grid.ColWidth)
		occ.AddWires(rt.Wires)
	}
	// The switchable count is a census, not a tally: step 5 may be driven again.
	flips, n, err := OptimizeSwitchable(ctx, rt.Opt.Workers, rt.Wires, occ, rt.Rand, rt.Opt.SwitchPasses)
	rt.SwitchFlips, rt.switchableWs = rt.SwitchFlips+flips, n
	if err != nil {
		return fmt.Errorf("route: switch-opt: %w", err)
	}
	return nil
}

// Result assembles and finalizes the metrics for a completed run.
func (rt *Router) Result(algo string, procs int, elapsed time.Duration) *metrics.Result {
	res := &metrics.Result{
		Circuit:         rt.C.Name,
		Algo:            algo,
		Procs:           procs,
		Wires:           rt.Wires,
		Feedthroughs:    rt.InsertedFts,
		ForcedEdges:     rt.ForcedEdges,
		CoreWidth:       rt.C.CoreWidth(),
		SwitchableWires: rt.switchableWs,
		SwitchFlips:     rt.SwitchFlips,
		CoarseFlips:     rt.CoarseFlips,
		Elapsed:         elapsed,
	}
	res.Finalize(rt.C.NumChannels(), len(rt.C.Rows), rt.C.CellHeight, metrics.TrackPitch, rt.Opt.Workers)
	return res
}

package parallel

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"parroute/internal/circuit"
	"parroute/internal/geom"
	"parroute/internal/grid"
	"parroute/internal/mp"
	"parroute/internal/partition"
	"parroute/internal/pipeline"
	"parroute/internal/route"
	"parroute/internal/steiner"
)

// netWiseStages is the net-wise pin-partition algorithm (§5). Nets (and
// their pins) are partitioned by the configured heuristic; rows remain
// block-partitioned for feedthrough bookkeeping.
//
//  1. Each rank builds the Steiner trees of its nets.
//  2. Coarse routing optimizes the rank's own segments against a
//     replicated global grid that is synchronized NetwiseSyncPerPass times
//     per improvement pass — between syncs the other ranks' contributions
//     are stale, which is exactly the quality-loss mechanism the paper
//     reports.
//  3. Feedthrough demand is realized by row owners; crossings are shipped
//     to row owners for assignment and the assigned feedthroughs return
//     to net owners.
//  4. Row owners contribute every net's pin nodes; net owners connect
//     their whole nets, as under hybrid.
//  5. Switchable optimization runs per net owner against a replicated
//     channel occupancy with the same periodic synchronization — ranks
//     flip segments into the same channels between syncs ("the blindness
//     of each processor", §7.2).
//
// Stage names shared with the serial router are the serial router's own,
// but only connect and gather share a body with another driver: a rank
// routes its nets through every row, so it works on a clone of the whole
// circuit, and "stitch" is the replicated-occupancy synchronization before
// step 5.
func netWiseStages(r *rank) []pipeline.Stage {
	comm, base, blocks, block, owner := r.comm, r.base, r.blocks, r.block, r.owner
	opt, ropt := r.opt, r.ropt
	rank, size := comm.Rank(), comm.Size()
	sub := base.Clone()
	r.sub = sub
	rnd := r.rt.Rand

	// State flowing between stages. The grid and the occupancy are each
	// replicated: own holds this rank's contributions, shared the sum of
	// every rank's as of the last sync plus this rank's moves since, and the
	// snapshot own's counters as of that sync (see addDeltas). pairs is the
	// scratch every delta is diffed into, with room for a whole table; what
	// a sync sends is a copy, since peers keep the slice they are handed.
	var (
		segs              []route.PlacedSeg
		own, shared       *grid.Grid
		gridSnap, occSnap []int32
		pairs             []int32
		ftByRow           [][]int
		ftNodes           []NodeBatch
		ownOcc, sharedOcc *route.Occupancy
	)
	// The collectives are spelled out per table so that each tag keeps its
	// static payload type in mp_protocol.json.
	syncGrid := func() error {
		pairs = own.AppendDelta(pairs[:0], gridSnap)
		in, err := mp.Allgather(comm, tagGridSync, slices.Clone(pairs))
		if err != nil {
			return err
		}
		return r.addDeltas(tagGridSync, in, own, shared)
	}
	syncOcc := func() error {
		pairs = ownOcc.AppendDelta(pairs[:0], occSnap)
		in, err := mp.Allgather(comm, tagOccSync, slices.Clone(pairs))
		if err != nil {
			return err
		}
		return r.addDeltas(tagOccSync, in, ownOcc, sharedOcc)
	}

	return []pipeline.Stage{
		stage("steiner", func(s *pipeline.Session) error {
			// One Builder and segment buffer serve every owned net; a k-pin
			// net yields exactly k-1 segments, so segs is sized up front.
			total := 0
			for n := range sub.Nets {
				if k := len(sub.Nets[n].Pins); owner[n] == rank && k >= 2 {
					total += k - 1
				}
			}
			segs = make([]route.PlacedSeg, 0, total)
			var b steiner.Builder
			var segBuf []steiner.Segment
			for n := range sub.Nets {
				if owner[n] != rank {
					continue
				}
				segBuf = b.AppendNet(segBuf[:0], sub, n)
				for _, seg := range segBuf {
					segs = append(segs, route.Place(sub, seg))
				}
			}
			s.Count("segments", int64(len(segs)))
			return nil
		}),
		stage("coarse", func(s *pipeline.Session) error {
			// Coarse routing against the replicated grid.
			own = grid.New(len(sub.Rows), base.CoreWidth(), ropt.GridColWidth)
			for i := range segs {
				route.ApplyRuns(own, segs[i].CurrentRuns(), 1)
			}
			shared, gridSnap = own.Clone(), make([]int32, own.TableLen())
			pairs = make([]int32, 0, 2*own.TableLen())
			if err := syncGrid(); err != nil {
				return fmt.Errorf("netwise: grid sync: %w", err)
			}
			// Flip candidates with their static geometry cached, as in the
			// serial step 2: the span and endpoint columns never change
			// before insertion, so the sweep evaluates each flip as one
			// incremental grid walk.
			type flipCand struct {
				seg        int
				span       geom.Interval
				colP, colQ int
			}
			cands := make([]flipCand, 0, len(segs))
			for i := range segs {
				ps := &segs[i]
				if ps.HasBend() && ps.XP != ps.XQ {
					cands = append(cands, flipCand{
						seg:  i,
						span: geom.NewInterval(ps.XP, ps.XQ),
						colP: shared.ColOf(ps.XP),
						colQ: shared.ColOf(ps.XQ),
					})
				}
			}
			perm := make([]int, len(cands))
			for pass := 0; pass < ropt.CoarsePasses; pass++ {
				rnd.PermInto(perm)
				passFlips := 0
				err := forEachChunk(len(perm), opt.NetwiseSyncPerPass, func(lo, hi int) error {
					for _, pi := range perm[lo:hi] {
						fc := &cands[pi]
						ps := &segs[fc.seg]
						chFrom, chTo := ps.CP, ps.CQ
						fromCol, toCol := fc.colQ, fc.colP
						if ps.BendAtP {
							chFrom, chTo = ps.CQ, ps.CP
							fromCol, toCol = fc.colP, fc.colQ
						}
						delta := shared.SpanCost(chFrom, chTo, fc.span) +
							shared.VertMoveCost(ps.CP, ps.CQ-1, fromCol, toCol)
						if delta < 0 {
							ps.BendAtP = !ps.BendAtP
							shared.MoveWire(chFrom, chTo, fc.span)
							shared.MoveVert(ps.CP, ps.CQ-1, fromCol, toCol)
							own.MoveWire(chFrom, chTo, fc.span)
							own.MoveVert(ps.CP, ps.CQ-1, fromCol, toCol)
							passFlips++
						}
					}
					if opt.NetwiseSyncPerPass > 0 {
						return syncGrid()
					}
					return nil
				})
				if err != nil {
					return err
				}
				r.sum.CoarseFlips += passFlips
				globalFlips, err := mp.AllreduceInt(comm, tagCoarseVote, passFlips, mp.SumInt)
				if err != nil {
					return fmt.Errorf("netwise: coarse convergence vote: %w", err)
				}
				if globalFlips == 0 {
					break
				}
			}

			// The feedthrough demand realized next must be identical on
			// every rank regardless of the sync policy, so one final sync
			// closes the coarse phase (its cost is charged like any other).
			if err := syncGrid(); err != nil {
				return fmt.Errorf("netwise: final grid sync: %w", err)
			}
			s.Count("coarse-flips", int64(r.sum.CoarseFlips))
			return nil
		}),
		stage("ft-insert", func(s *pipeline.Session) error {
			// The final synchronized grid is identical everywhere, so row
			// owners see the complete demand.
			var err error
			ftByRow, r.sum.InsertedFts, err = route.InsertGridFeedthroughs(sub, shared, block.Lo, block.Hi, ropt.Workers)
			if err != nil {
				return err
			}
			// Refresh segment endpoints that sit in this rank's (now
			// shifted) rows.
			for i := range segs {
				segs[i].XP = sub.Pins[segs[i].PinAtP].X
				segs[i].XQ = sub.Pins[segs[i].PinAtQ].X
			}
			s.Count("inserted-fts", int64(r.sum.InsertedFts))
			return nil
		}),
		stage("ft-assign", func(_ *pipeline.Session) error {
			// Ship crossings to row owners for assignment, in batches sized
			// by a counting pass.
			counts := make([]int, size)
			for i := range segs {
				if runs := segs[i].CurrentRuns(); runs.HasVert() {
					for row := runs.VLo; row <= runs.VHi; row++ {
						counts[partition.BlockOf(blocks, row)]++
					}
				}
			}
			cross := sizedBatches[CrossingBatch](counts)
			for i := range segs {
				runs := segs[i].CurrentRuns()
				if !runs.HasVert() {
					continue
				}
				for row := runs.VLo; row <= runs.VHi; row++ {
					dest := partition.BlockOf(blocks, row)
					cross[dest] = append(cross[dest], CrossingMsg{Net: segs[i].Seg.Net, X: runs.VCol, Row: row})
				}
			}
			in, err := mp.Alltoall(comm, tagCrossings, anys(cross))
			if err != nil {
				return fmt.Errorf("netwise: crossing exchange: %w", err)
			}
			// Received crossings index this rank's rows and the net table, so
			// both are checked here; the same pass sizes the replies.
			byRow := make([]CrossingBatch, len(sub.Rows))
			clear(counts)
			for r, raw := range in {
				batch, ok := raw.(CrossingBatch)
				if !ok {
					return fmt.Errorf("parallel: crossings from rank %d arrived as %T", r, raw)
				}
				for i, cr := range batch {
					if cr.Net < 0 || cr.Net >= len(sub.Nets) {
						return badIndex(tagCrossings, r, i, "net", cr.Net, 0, len(sub.Nets)-1)
					}
					if !block.Contains(cr.Row) {
						return badIndex(tagCrossings, r, i, "row", cr.Row, block.Lo, block.Hi)
					}
					byRow[cr.Row] = append(byRow[cr.Row], cr)
					counts[owner[cr.Net]]++
				}
			}

			// Assign per row (sorted matching, as in the serial step 3) and
			// route each assigned feedthrough back to the net's owner as a
			// step-4 node.
			ftNodes = sizedBatches[NodeBatch](counts)
			for row := block.Lo; row <= block.Hi; row++ {
				crossings := byRow[row]
				slices.SortFunc(crossings, compareCrossings)
				fts := ftByRow[row]
				slices.SortFunc(fts, func(a, b int) int {
					if ax, bx := sub.Pins[a].X, sub.Pins[b].X; ax != bx {
						return cmp.Compare(ax, bx)
					}
					// Same-x feedthrough pins are interchangeable for
					// routing, but break the tie by pin ID so the binding
					// permutation is deterministic rather than
					// sort-internal.
					return cmp.Compare(a, b)
				})
				for i, cr := range crossings {
					var pinID int
					if i < len(fts) {
						pinID = fts[i]
					} else {
						pinID = sub.InsertFeedthrough(row, cr.X, circuit.NoNet)
						r.sum.InsertedFts++
					}
					dest := owner[cr.Net]
					ftNodes[dest] = append(ftNodes[dest], NodeMsg{
						Net: cr.Net, X: sub.Pins[pinID].X, Row: row, Side: circuit.Both,
					})
				}
			}
			return nil
		}),
		pipeline.Func("connect", func(ctx context.Context, s *pipeline.Session) error {
			// Per net: pin nodes first, then the feedthrough nodes step 3
			// assigned. (A net-wise sub-circuit has no fake pins to skip.)
			ftIn, err := mp.Alltoall(comm, tagFtNodes, anys(ftNodes))
			if err != nil {
				return fmt.Errorf("netwise: feedthrough-node exchange: %w", err)
			}
			return r.connectWhole(ctx, s, nodeSet{tagFtNodes, ftIn})
		}),
		stage("stitch", func(*pipeline.Session) error {
			// Replicate the channel occupancy for step 5.
			coreW, err := r.coreWidth()
			if err != nil {
				return err
			}
			ownOcc = route.NewOccupancy(sub.NumChannels(), coreW, ropt.GridColWidth)
			ownOcc.AddWires(r.wires)
			sharedOcc, occSnap = ownOcc.Clone(), make([]int32, ownOcc.TableLen())
			if err := syncOcc(); err != nil {
				return fmt.Errorf("netwise: occupancy sync: %w", err)
			}
			return nil
		}),
		stage("switch-opt", func(s *pipeline.Session) error {
			wires := r.wires
			switchIdx := make([]int, 0, len(wires))
			for i := range wires {
				if wires[i].Switchable && !wires[i].Span.Empty() {
					switchIdx = append(switchIdx, i)
				}
			}
			perm := make([]int, len(switchIdx))
			for pass := 0; pass < ropt.SwitchPasses; pass++ {
				rnd.PermInto(perm)
				passFlips := 0
				err := forEachChunk(len(perm), opt.NetwiseSyncPerPass, func(lo, hi int) error {
					for _, pi := range perm[lo:hi] {
						w := &wires[switchIdx[pi]]
						other := w.OtherChannel()
						if sharedOcc.MoveCost(w.Channel, other, w.Span) < 0 {
							sharedOcc.Add(w.Channel, w.Span, -1)
							sharedOcc.Add(other, w.Span, 1)
							ownOcc.Add(w.Channel, w.Span, -1)
							ownOcc.Add(other, w.Span, 1)
							w.Channel = other
							passFlips++
						}
					}
					if opt.NetwiseSyncPerPass > 0 {
						return syncOcc()
					}
					return nil
				})
				if err != nil {
					return err
				}
				r.sum.SwitchFlips += passFlips
				globalFlips, err := mp.AllreduceInt(comm, tagSwitchVote, passFlips, mp.SumInt)
				if err != nil {
					return fmt.Errorf("netwise: switch convergence vote: %w", err)
				}
				if globalFlips == 0 {
					break
				}
			}
			s.Count("switch-flips", int64(r.sum.SwitchFlips))
			return nil
		}),
		stage("gather", r.gather),
	}
}

// compareCrossings orders a row's crossings by (x, net). Crossings equal in
// both are identical values, so the order is total without a stable sort.
func compareCrossings(a, b CrossingMsg) int {
	if a.X != b.X {
		return cmp.Compare(a.X, b.X)
	}
	return cmp.Compare(a.Net, b.Net)
}

// forEachChunk splits [0, n) into `chunks` contiguous pieces (at least
// one; empty pieces still invoke f so every rank performs the same number
// of synchronization points regardless of its local work count).
func forEachChunk(n, chunks int, f func(lo, hi int) error) error {
	if chunks < 1 {
		chunks = 1
	}
	per := (n + chunks - 1) / chunks
	if per < 1 {
		per = 1
	}
	lo := 0
	for i := 0; i < chunks; i++ {
		hi := lo + per
		if hi > n {
			hi = n
		}
		if err := f(lo, hi); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// deltaTable is what a net-wise sync needs of a replicated counter table;
// grid.Grid and route.Occupancy are the two.
type deltaTable interface {
	ApplyDelta(pairs []int32) error
}

// addDeltas finishes a sync of a replicated table: in holds, by rank, what
// changed in each rank's own table since its previous sync, as (index,
// change) pairs, and every peer's pairs are added into shared in place —
// this rank's moves are in shared already. Integer sums commute, so shared
// is then the sum of every rank's own table, as an Allreduce of the whole
// tables would leave it, at any number of ranks and syncs. A phase's first
// sync is the same exchange from an all-zero snapshot, with shared started
// as a copy of own. The pairs crossed the mesh: ApplyDelta checks them.
func (r *rank) addDeltas(tag int, in []any, own, shared deltaTable) error {
	for src, raw := range in {
		if src == r.comm.Rank() {
			continue
		}
		pairs, ok := raw.([]int32)
		if !ok {
			return fmt.Errorf("parallel: tag %d delta from rank %d arrived as %T", tag, src, raw)
		}
		if err := shared.ApplyDelta(pairs); err != nil {
			return fmt.Errorf("parallel: tag %d batch from rank %d: %w", tag, src, err)
		}
	}
	if r.afterSync != nil {
		return r.afterSync(tag, own, shared)
	}
	return nil
}

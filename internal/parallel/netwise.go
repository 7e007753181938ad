package parallel

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"parroute/internal/circuit"
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
// routes its nets through every row, so it works on a fork of the whole
// circuit, and "stitch" is the replicated-occupancy synchronization before
// step 5. What a step-2 or step-5 flip is, though, is the serial router's
// (route.BendFlips, route.SwitchFlips); net-wise differs in how a pass
// visits the flips and when it synchronizes (syncedPasses), as in the paper.
func netWiseStages(r *rank) []pipeline.Stage {
	comm, base, blocks, block, owner := r.comm, r.base, r.blocks, r.block, r.owner
	ropt := r.ropt
	rank, size := comm.Rank(), comm.Size()
	sub := base.Fork()
	r.sub = sub

	// State flowing between stages. The grid (r.rt.Grid) and then the
	// occupancy (r.occ) are each one table replicated on every rank: the sum
	// of every rank's contributions as of the last sync plus this rank's
	// moves since. snap is the table as of that sync, so table − snap is
	// exactly this rank's moves (see addDeltas). pairs is the scratch every
	// delta is diffed into, with room for a whole table; what a sync sends is
	// a copy, since peers keep the slice they are handed.
	var (
		snap, pairs []int32
		ftByRow     [][]int
		ftNodes     []NodeBatch
	)
	// The collectives are spelled out per table so that tag-discipline,
	// which reads tags at call sites, sees each one.
	syncGrid := func() error {
		pairs = r.rt.Grid.AppendDelta(pairs[:0], snap)
		in, err := mp.Allgather(comm, tagGridSync, slices.Clone(pairs))
		if err != nil {
			return err
		}
		return r.addDeltas(tagGridSync, in, r.rt.Grid, snap)
	}
	syncOcc := func() error {
		pairs = r.occ.AppendDelta(pairs[:0], snap)
		in, err := mp.Allgather(comm, tagOccSync, slices.Clone(pairs))
		if err != nil {
			return err
		}
		return r.addDeltas(tagOccSync, in, r.occ, snap)
	}

	return []pipeline.Stage{
		stage("steiner", func(s *pipeline.Session) error {
			// One Builder and segment buffer serve every owned net; a k-pin
			// net yields exactly k-1 segments, so segs is sized up front.
			total := 0
			for n := range sub.Nets {
				if k := len(sub.NetPins(n)); owner[n] == rank && k >= 2 {
					total += k - 1
				}
			}
			segs := make([]route.PlacedSeg, 0, total)
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
			r.rt.Segs = segs
			s.Count("segments", int64(len(segs)))
			return nil
		}),
		pipeline.Func("coarse", func(ctx context.Context, s *pipeline.Session) error {
			// Coarse routing against the replicated grid: the first sync, from
			// an all-zero snapshot, turns this rank's runs into the sum.
			g := grid.New(len(sub.Rows), base.CoreWidth(), grid.ColWidth)
			for i := range r.rt.Segs {
				route.ApplyRuns(g, r.rt.Segs[i].CurrentRuns(), 1)
			}
			r.rt.Grid, snap = g, make([]int32, g.TableLen())
			pairs = make([]int32, 0, 2*g.TableLen())
			if err := syncGrid(); err != nil {
				return fmt.Errorf("netwise: grid sync: %w", err)
			}
			n, _, flip, err := route.BendFlips(ctx, ropt.Workers, g, r.rt.Segs)
			if err != nil {
				return fmt.Errorf("netwise: coarse: %w", err)
			}
			r.sum.CoarseFlips, err = r.syncedPasses(n, ropt.CoarsePasses, flip, syncGrid, func(flips int) (int, error) {
				global, err := mp.AllreduceInt(comm, tagCoarseVote, flips, mp.SumInt)
				if err != nil {
					return 0, fmt.Errorf("netwise: coarse convergence vote: %w", err)
				}
				return global, nil
			})
			if err != nil {
				return err
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
			ftByRow, r.sum.InsertedFts, err = route.InsertGridFeedthroughs(sub, r.rt.Grid, block.Lo, block.Hi, ropt.Workers)
			if err != nil {
				return err
			}
			// Segment endpoints in this rank's rows have shifted.
			route.RefreshSegs(sub, r.rt.Segs, ropt.Workers)
			s.Count("inserted-fts", int64(r.sum.InsertedFts))
			return nil
		}),
		stage("ft-assign", func(_ *pipeline.Session) error {
			// Ship crossings to row owners for assignment, in batches sized
			// by a counting pass.
			segs := r.rt.Segs
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
					cross[dest] = append(cross[dest], CrossingMsg{Net: segs[i].Net, X: int32(runs.VCol), Row: int32(row)})
				}
			}
			in, err := mp.Alltoall(comm, tagCrossings, cross)
			if err != nil {
				return fmt.Errorf("netwise: crossing exchange: %w", err)
			}
			// Received crossings index this rank's rows and the net table, and
			// their x orders the row's matching and may place a feedthrough, so
			// all three are checked here; the same pass sizes the replies.
			byRow := make([]CrossingBatch, len(sub.Rows))
			clear(counts)
			for r, batch := range in {
				for i, cr := range batch {
					if int(cr.Net) >= len(sub.Nets) || !block.Contains(int(cr.Row)) || min(cr.Net, cr.X) < 0 {
						return cmp.Or(badIndex(tagCrossings, r, i, "net", cr.Net, 0, len(sub.Nets)-1),
							badIndex(tagCrossings, r, i, "row", cr.Row, block.Lo, block.Hi), badIndex(tagCrossings, r, i, "x", cr.X, 0, circuit.MaxCoord))
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
				route.SortFts(sub, fts)
				for i, cr := range crossings {
					var pinID int
					if i < len(fts) {
						pinID = fts[i]
					} else {
						pinID = sub.InsertFeedthrough(row, int(cr.X), circuit.NoNet) //lint:allow forbidden-call step-3 overflow: one feedthrough the demand estimate missed
						r.sum.InsertedFts++
					}
					dest := owner[cr.Net]
					ftNodes[dest] = append(ftNodes[dest], NodeMsg{
						Net: cr.Net, X: sub.Pins[pinID].X, Row: int32(row), Side: circuit.Both,
					})
				}
			}
			return nil
		}),
		pipeline.Func("connect", func(ctx context.Context, s *pipeline.Session) error {
			// Per net: pin nodes first, then the feedthrough nodes step 3
			// assigned. (A net-wise sub-circuit has no fake pins to skip.)
			ftIn, err := mp.Alltoall(comm, tagFtNodes, ftNodes)
			if err != nil {
				return fmt.Errorf("netwise: feedthrough-node exchange: %w", err)
			}
			return r.connectWhole(ctx, s, ftIn)
		}),
		stage("stitch", func(*pipeline.Session) error {
			// Replicate the channel occupancy for step 5.
			coreW, err := r.coreWidth()
			if err != nil {
				return err
			}
			r.occ = route.NewOccupancy(sub.NumChannels(), coreW, grid.ColWidth)
			r.occ.AddWires(r.wires)
			snap = make([]int32, r.occ.TableLen())
			if err := syncOcc(); err != nil {
				return fmt.Errorf("netwise: occupancy sync: %w", err)
			}
			return nil
		}),
		pipeline.Func("switch-opt", func(ctx context.Context, s *pipeline.Session) error {
			n, _, flip, err := route.SwitchFlips(ctx, ropt.Workers, r.occ, r.wires)
			if err != nil {
				return fmt.Errorf("netwise: switch-opt: %w", err)
			}
			r.sum.SwitchableWs = n
			r.sum.SwitchFlips, err = r.syncedPasses(n, ropt.SwitchPasses, flip, syncOcc, func(flips int) (int, error) {
				global, err := mp.AllreduceInt(comm, tagSwitchVote, flips, mp.SumInt)
				if err != nil {
					return 0, fmt.Errorf("netwise: switch convergence vote: %w", err)
				}
				return global, nil
			})
			s.Count("switch-flips", int64(r.sum.SwitchFlips))
			return err
		}),
		stage("gather", r.gather),
	}
}

// compareCrossings orders a row's crossings by (x, net). Crossings equal in
// both are identical values, so the order is total without a stable sort.
func compareCrossings(a, b CrossingMsg) int {
	return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Net, b.Net))
}

// forEachChunk splits [0, n) into `chunks` contiguous pieces (at least
// one; empty pieces still invoke f so every rank performs the same number
// of synchronization points regardless of its local work count).
func forEachChunk(n, chunks int, f func(lo, hi int) error) error {
	chunks = max(chunks, 1)
	per := max((n+chunks-1)/chunks, 1)
	for i := 0; i < chunks; i++ {
		if err := f(min(i*per, n), min((i+1)*per, n)); err != nil {
			return err
		}
	}
	return nil
}

// syncedPasses is how net-wise visits a phase's n flip candidates: up to
// passes sweeps, each in a fresh random order and cut into NetwiseSyncPerPass
// chunks with a sync after each — between syncs the other ranks' moves are
// unseen — until the ranks vote that a whole pass flipped nothing anywhere.
// flip is the serial router's own (route.BendFlips, route.SwitchFlips); vote
// turns this rank's flips of a pass into every rank's. It returns this rank's
// flips.
func (r *rank) syncedPasses(n, passes int, flip func(i int) bool, sync func() error, vote func(flips int) (int, error)) (int, error) {
	perm := make([]int, n)
	total := 0
	for pass := 0; pass < passes; pass++ {
		r.rt.Rand.PermInto(perm)
		flips := 0
		err := forEachChunk(n, r.opt.NetwiseSyncPerPass, func(lo, hi int) error {
			for _, i := range perm[lo:hi] {
				if flip(i) {
					flips++
				}
			}
			if r.opt.NetwiseSyncPerPass > 0 {
				return sync()
			}
			return nil
		})
		total += flips
		if err != nil {
			return total, err
		}
		if global, err := vote(flips); err != nil || global == 0 {
			return total, err
		}
	}
	return total, nil
}

// deltaTable is what a net-wise sync needs of a replicated counter table;
// grid.Grid and route.Occupancy are the two.
type deltaTable interface {
	ApplyDelta(pairs []int32) error
}

// addDeltas finishes a sync of a replicated table: in holds, by rank, what
// each rank moved since its previous sync, as (index, change) pairs, and every
// peer's pairs are added into table in place — this rank's moves are in it
// already. Integer sums commute, so table is then the sum of every rank's
// contributions, as an Allreduce of whole tables would leave it, at any
// number of ranks and syncs. snap, which AppendDelta advanced to the table
// as this rank's pairs were taken, absorbs the peers' pairs too and so
// equals the table again: the next delta holds this rank's moves and does
// not send back what it received. The pairs crossed the mesh: ApplyDelta
// checks them, and snap takes them only once they passed.
func (r *rank) addDeltas(tag int, in [][]int32, table deltaTable, snap []int32) error {
	for src, pairs := range in {
		if src == r.comm.Rank() {
			continue
		}
		if err := table.ApplyDelta(pairs); err != nil {
			return fmt.Errorf("parallel: tag %d batch from rank %d: %w", tag, src, err)
		}
		for i := 0; i < len(pairs); i += 2 {
			snap[pairs[i]] += pairs[i+1]
		}
	}
	if r.afterSync != nil {
		return r.afterSync(tag, table)
	}
	return nil
}

package parallel

import (
	"context"
	"fmt"
	"slices"

	"parroute/internal/circuit"
	"parroute/internal/geom"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/partition"
	"parroute/internal/pipeline"
	"parroute/internal/route"
)

// hybridWorker is one rank of the hybrid pin-partition algorithm (§6):
// identical to row-wise through feedthrough assignment, but net connection
// (step 4) is done for each *whole* net by a single owner, eliminating the
// duplicated boundary-channel wiring of independent sub-net connection
// (the paper's Figure 3 artifact). The resulting wires are redistributed
// to channel owners for switchable optimization.
//
// Each step is a pipeline stage over the rank's session; stage names
// shared with the serial router are the serial router's own, "stitch" is
// the wire redistribution that has no serial counterpart.
func hybridWorker(ctx context.Context, comm mp.Comm, base *circuit.Circuit, blocks []partition.RowBlock,
	owner []int, opt Options, out *runOutput) error {

	rank := comm.Rank()
	block := blocks[rank]
	ropt := opt.Route
	ropt.Seed = workerSeed(opt.Route.Seed, rank)
	ropt.GridWidth = base.CoreWidth()

	// State flowing between stages.
	var (
		sub       *circuit.Circuit
		rt        *route.Router
		myFakes   []FakePinSpec
		connected []metrics.Wire
		occ       *route.Occupancy
		forced    int
		flips     int
		myWires   []metrics.Wire
	)

	ses, rec := workerSession(opt)
	stages := []pipeline.Stage{
		stage("crossings", func(s *pipeline.Session) error {
			// Phases 1-3 run exactly the row-wise pipeline through
			// feedthrough assignment (fake pins keep the coarse routing and
			// feedthrough bookkeeping purely local).
			specs := computeCrossings(base, blocks, owner, rank)
			var err error
			myFakes, err = exchangeFakePins(comm, specs, len(base.Nets), block)
			if err != nil {
				return fmt.Errorf("hybrid: fake-pin exchange: %w", err)
			}
			s.Count("fake-pins", int64(len(myFakes)))
			return nil
		}),
		stage("subcircuit", func(_ *pipeline.Session) error {
			sub = buildBlockCircuit(base, block, myFakes)
			rt = route.NewRouter(sub, ropt)
			return nil
		}),
		pipeline.Func("steiner", func(ctx context.Context, s *pipeline.Session) error {
			if err := rt.BuildTrees(ctx); err != nil {
				return err
			}
			s.Count("segments", int64(len(rt.Segs)))
			return nil
		}),
		stage("coarse", func(s *pipeline.Session) error {
			rt.CoarseRoute()
			s.Count("coarse-flips", int64(rt.CoarseFlips))
			return nil
		}),
		stage("ft-insert", func(s *pipeline.Session) error {
			if err := rt.InsertFeedthroughs(); err != nil {
				return err
			}
			s.Count("inserted-fts", int64(rt.InsertedFts))
			return nil
		}),
		pipeline.Func("ft-assign", func(ctx context.Context, _ *pipeline.Session) error {
			return rt.AssignFeedthroughs(ctx)
		}),
		pipeline.Func("connect", func(ctx context.Context, s *pipeline.Session) error {
			// Ship every net's connection nodes (real pins and bound
			// feedthroughs in this block) to the net's owner, which connects
			// the whole net at once.
			contrib := ownPinNodes(sub, block, owner, comm.Size())
			in, err := mp.Alltoall(comm, tagNetNodes, anys(contrib))
			if err != nil {
				return fmt.Errorf("hybrid: net-node exchange: %w", err)
			}
			byNet, err := collectNodes(len(sub.Nets), len(sub.Rows), nodeSet{tagNetNodes, in})
			if err != nil {
				return err
			}
			connOcc := route.NewOccupancy(sub.NumChannels(), base.CoreWidth()*2, ropt.GridColWidth)
			if connected, forced, err = connectOwnedNets(ctx, byNet, connOcc, ropt.Workers); err != nil {
				return err
			}
			s.Count("wires", int64(len(connected)))
			s.Count("forced-edges", int64(forced))
			return nil
		}),
		stage("stitch", func(_ *pipeline.Session) error {
			// Redistribute wires to the workers owning their channels
			// (switchable wires go to the owner of their row, whose two
			// candidate channels they alternate between), then synchronize
			// the shared boundary channels once with the neighbors.
			numRows := len(base.Rows)
			destOf := func(w *metrics.Wire) int {
				if w.Switchable {
					return partition.BlockOf(blocks, w.Row)
				}
				return partition.BlockOf(blocks, geom.Min(w.Channel, numRows-1))
			}
			counts := make([]int, comm.Size())
			for i := range connected {
				counts[destOf(&connected[i])]++
			}
			out := make([]WireBatch, comm.Size())
			for k := range out {
				out[k].Wires = slices.Grow(out[k].Wires, counts[k])
			}
			for i := range connected {
				dest := destOf(&connected[i])
				out[dest].Wires = append(out[dest].Wires, connected[i])
			}
			in, err := mp.Alltoall(comm, tagWiresRedist, anys(out))
			if err != nil {
				return fmt.Errorf("hybrid: wire redistribution: %w", err)
			}
			if myWires, err = concatWires(in, tagWiresRedist, sub.NumChannels()); err != nil {
				return err
			}
			coreW, err := globalCoreWidth(comm, sub, block)
			if err != nil {
				return fmt.Errorf("hybrid: core-width sync: %w", err)
			}
			occ = route.NewOccupancy(sub.NumChannels(), coreW, ropt.GridColWidth)
			occ.AddWires(myWires)
			if err := syncBoundaryOccupancy(comm, blocks, occ); err != nil {
				return fmt.Errorf("hybrid: boundary-occupancy sync: %w", err)
			}
			return nil
		}),
		stage("switch-opt", func(s *pipeline.Session) error {
			flips = route.OptimizeSwitchable(myWires, occ, rt.Rand, ropt.SwitchPasses)
			s.Count("switch-flips", int64(flips))
			return nil
		}),
		stage("gather", func(_ *pipeline.Session) error {
			switchable := 0
			for i := range myWires {
				if myWires[i].Switchable && !myWires[i].Span.Empty() {
					switchable++
				}
			}
			sum := Summary{
				Rank:         rank,
				InsertedFts:  rt.InsertedFts,
				ForcedEdges:  forced,
				SwitchableWs: switchable,
				SwitchFlips:  flips,
				CoarseFlips:  rt.CoarseFlips,
				RowWidths:    ownRowWidths(sub, block),
				Phases:       rec.Phases(),
			}
			if err := gatherResults(comm, myWires, sum, out); err != nil {
				return fmt.Errorf("hybrid: result gather: %w", err)
			}
			return nil
		}),
	}
	return pipeline.Run(ctx, ses, stages...)
}

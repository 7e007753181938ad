package parallel

import (
	"context"
	"fmt"

	"parroute/internal/circuit"
	"parroute/internal/mp"
	"parroute/internal/partition"
	"parroute/internal/pipeline"
	"parroute/internal/route"
)

// rowWiseWorker is one rank of the row-wise pin-partition algorithm (§4).
//
//  1. Every rank builds the Steiner trees of the nets it owns (the net
//     partition exists only to parallelize this phase) and derives the
//     fake-pin specs where tree segments cross partition boundaries.
//  2. Fake pins are exchanged all-to-all; each rank assembles its
//     sub-circuit: its rows' pins plus its boundary fake pins.
//  3. Each rank runs the full TWGR pipeline on its sub-circuit — the pins
//     on partition boundaries are ordinary net pins there, so boundary
//     connections happen during normal net connection, before switchable
//     optimization, as the paper requires.
//  4. Before switchable optimization, the occupancy of each shared
//     boundary channel is exchanged with the neighbor.
//  5. Wires and counters are gathered and merged at rank 0.
//
// Each step is a pipeline stage over the rank's session; stage names
// shared with the serial router are the serial router's own.
func rowWiseWorker(ctx context.Context, comm mp.Comm, base *circuit.Circuit, blocks []partition.RowBlock,
	owner []int, opt Options, out *runOutput) error {

	rank := comm.Rank()
	block := blocks[rank]
	ropt := opt.Route
	ropt.Seed = workerSeed(opt.Route.Seed, rank)
	ropt.GridWidth = base.CoreWidth()

	// State flowing between stages.
	var (
		sub     *circuit.Circuit
		rt      *route.Router
		myFakes []FakePinSpec
		occ     *route.Occupancy
		flips   int
	)

	ses, rec := workerSession(opt)
	stages := []pipeline.Stage{
		stage("crossings", func(s *pipeline.Session) error {
			specs := computeCrossings(base, blocks, owner, rank)
			var err error
			myFakes, err = exchangeFakePins(comm, specs, len(base.Nets), block)
			if err != nil {
				return fmt.Errorf("rowwise: fake-pin exchange: %w", err)
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
			if err := rt.ConnectNets(ctx); err != nil {
				return err
			}
			s.Count("wires", int64(len(rt.Wires)))
			s.Count("forced-edges", int64(rt.ForcedEdges))
			return nil
		}),
		stage("stitch", func(_ *pipeline.Session) error {
			// Boundary-channel sync: agree on the core width, then add the
			// neighbors' shared-channel wires as fixed background.
			coreW, err := globalCoreWidth(comm, sub, block)
			if err != nil {
				return fmt.Errorf("rowwise: core-width sync: %w", err)
			}
			occ = route.NewOccupancy(sub.NumChannels(), coreW, ropt.GridColWidth)
			occ.AddWires(rt.Wires)
			if err := syncBoundaryOccupancy(comm, blocks, occ); err != nil {
				return fmt.Errorf("rowwise: boundary-occupancy sync: %w", err)
			}
			return nil
		}),
		stage("switch-opt", func(s *pipeline.Session) error {
			flips = route.OptimizeSwitchable(rt.Wires, occ, rt.Rand, ropt.SwitchPasses)
			s.Count("switch-flips", int64(flips))
			return nil
		}),
		stage("gather", func(_ *pipeline.Session) error {
			switchable := 0
			for i := range rt.Wires {
				if rt.Wires[i].Switchable && !rt.Wires[i].Span.Empty() {
					switchable++
				}
			}
			sum := Summary{
				Rank:         rank,
				InsertedFts:  rt.InsertedFts,
				ForcedEdges:  rt.ForcedEdges,
				SwitchableWs: switchable,
				SwitchFlips:  flips,
				CoarseFlips:  rt.CoarseFlips,
				RowWidths:    ownRowWidths(sub, block),
				Phases:       rec.Phases(),
			}
			if err := gatherResults(comm, rt.Wires, sum, out); err != nil {
				return fmt.Errorf("rowwise: result gather: %w", err)
			}
			return nil
		}),
	}
	return pipeline.Run(ctx, ses, stages...)
}

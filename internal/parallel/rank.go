package parallel

import (
	"context"
	"fmt"
	"slices"

	"parroute/internal/circuit"
	"parroute/internal/geom"
	"parroute/internal/grid"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/partition"
	"parroute/internal/pipeline"
	"parroute/internal/route"
)

// rank is one rank's state across the stages of a parallel run. The paper
// writes its three algorithms once and differs them in steps 2–5 only; so
// does this package: every step two of them share is a method here, written
// once, the steps a driver shares with the serial router are the serial
// router's own stages (serial), and rowwise.go, hybrid.go and netwise.go
// are each a stage list over those plus the bodies only that algorithm has.
// Communication and compute both count toward a stage's wall time (the
// paper charges the sync cost to the phase that needs it).
type rank struct {
	comm   mp.Comm
	base   *circuit.Circuit // the whole design; only read
	blocks []partition.RowBlock
	block  partition.RowBlock // this rank's rows
	owner  []int              // net -> the rank that owns it
	opt    Options
	ropt   route.Options // opt.Route under this rank's seed
	rec    *pipeline.PhaseRecorder
	out    *runOutput

	// rt is the rank's serial-router state: its RNG stream from the start,
	// and from subcircuit on the router of the block's sub-circuit. Net-wise
	// keeps its segments and its replicated grid in rt.Segs and rt.Grid.
	rt    *route.Router
	sub   *circuit.Circuit // this rank's circuit: its block, or under net-wise a fork
	fakes []FakePinSpec
	wires []metrics.Wire   // what this rank optimizes in step 5 and reports
	occ   *route.Occupancy // step 5's occupancy
	sum   Summary          // counters of the driver's own bodies; gather adds the router's

	// afterSync, when set (tests only), sees a net-wise replicated table
	// after every sync.
	afterSync func(tag int, table deltaTable) error
}

// runRank executes one rank of a parallel run: the driver's stage list over
// a fresh rank state, under a session whose private phase recorder travels
// home in the Summary, beside the caller's shared observers.
func runRank(ctx context.Context, comm mp.Comm, base *circuit.Circuit, blocks []partition.RowBlock, owner []int,
	opt Options, out *runOutput, stages func(*rank) []pipeline.Stage) error {

	r := &rank{
		comm: comm, base: base, blocks: blocks, block: blocks[comm.Rank()], owner: owner,
		opt: opt, ropt: opt.Route, rec: pipeline.NewPhaseRecorder(), out: out,
		sum: Summary{Rank: comm.Rank()},
	}
	r.ropt.Seed = workerSeed(opt.Route.Seed, comm.Rank())
	r.ropt.GridWidth = base.CoreWidth()
	r.rt = route.NewRouter(nil, r.ropt)
	ses := pipeline.NewSession(append([]pipeline.Observer{r.rec}, opt.Observers...)...)
	return pipeline.Run(ctx, ses, stages(r)...)
}

// stage adapts a step that needs no context to a pipeline stage.
func stage(name string, fn func(s *pipeline.Session) error) pipeline.Stage {
	return pipeline.Func(name, func(_ context.Context, s *pipeline.Session) error {
		return fn(s)
	})
}

// serial returns the serial router's own stages of the given names — body,
// name and counters — to run over this rank's sub-circuit.
func (r *rank) serial(names ...string) []pipeline.Stage {
	all := r.rt.Stages()
	out := make([]pipeline.Stage, 0, len(names))
	for _, name := range names {
		i := slices.IndexFunc(all, func(st pipeline.Stage) bool { return st.Name() == name })
		if i < 0 {
			out = append(out, stage(name, func(*pipeline.Session) error {
				return fmt.Errorf("parallel: the serial router has no stage %q", name)
			}))
			continue
		}
		out = append(out, all[i])
	}
	return out
}

// crossings is the fake-pin placement of §4: every rank builds the Steiner
// trees of the nets it owns (the net partition exists only to parallelize
// this), derives the fake-pin specs where tree segments cross partition
// boundaries, and the specs are exchanged all-to-all.
func (r *rank) crossings(s *pipeline.Session) error {
	specs := computeCrossings(r.base, r.blocks, r.owner, r.comm.Rank())
	var err error
	if r.fakes, err = exchangeFakePins(r.comm, specs, len(r.base.Nets), r.block); err != nil {
		return fmt.Errorf("%v: fake-pin exchange: %w", r.opt.Algo, err)
	}
	s.Count("fake-pins", int64(len(r.fakes)))
	return nil
}

// subcircuit assembles the rank's sub-circuit — its rows' pins plus its
// boundary fake pins, which keep coarse routing and feedthrough bookkeeping
// purely local — and hands it to the serial router.
func (r *rank) subcircuit(*pipeline.Session) error {
	r.sub = buildBlockCircuit(r.base, r.block, r.fakes)
	r.rt.C = r.sub
	return nil
}

// connectWhole is step 4 done for each whole net by its single owner: row
// owners ship every net's pin nodes in their block (authoritative
// post-insertion coordinates, so all of a net's geometry lives in one
// coherent frame at its owner) to the net's owner, which connects the net
// from those, its own block's pins and the feedthrough nodes net-wise's
// step 3 sent it (ftIn; nil under hybrid), each read where it lies
// (indexNodes). The wires become r.wires.
func (r *rank) connectWhole(ctx context.Context, s *pipeline.Session, ftIn []NodeBatch) error {
	pinIn, err := mp.Alltoall(r.comm, tagNetNodes, ownPinNodes(r.sub, r.block, r.owner, r.comm.Rank(), r.comm.Size()))
	if err != nil {
		return fmt.Errorf("%v: pin-node exchange: %w", r.opt.Algo, err)
	}
	degree, of, err := indexNodes(r.sub, r.block, r.owner, r.comm.Rank(), pinIn, ftIn)
	if err != nil {
		return err
	}
	// The owner's occupancy is necessarily partial — it sees only this rank's
	// nets — which is the interference the paper's §5 describes.
	connOcc := route.NewOccupancy(r.sub.NumChannels(), r.base.CoreWidth()*2, grid.ColWidth)
	r.wires, r.sum.ForcedEdges, err = route.ConnectNets(ctx, r.ropt.Workers, len(r.sub.Nets), degree, of, connOcc)
	if err != nil {
		return err
	}
	s.Count("wires", int64(len(r.wires)))
	s.Count("forced-edges", int64(r.sum.ForcedEdges))
	return nil
}

// coreWidth agrees on the post-insertion core width: the maximum over every
// rank's owned rows.
func (r *rank) coreWidth() (int, error) {
	w := 1
	for row := r.block.Lo; row <= r.block.Hi; row++ {
		w = geom.Max(w, r.sub.RowWidth(row))
	}
	w, err := mp.AllreduceInt(r.comm, tagWidths, w, mp.MaxInt)
	if err != nil {
		return 0, fmt.Errorf("%v: core-width sync: %w", r.opt.Algo, err)
	}
	r.sum.CoreWidth = w
	return w, nil
}

// boundaryStitch prepares step 5 on a row block: r.wires go into a fresh
// occupancy of the agreed width, and the neighbors' wires in the two shared
// boundary channels join them as fixed background.
func (r *rank) boundaryStitch() error {
	coreW, err := r.coreWidth()
	if err != nil {
		return err
	}
	r.occ = route.NewOccupancy(r.sub.NumChannels(), coreW, grid.ColWidth)
	r.occ.AddWires(r.wires)
	if err := syncBoundaryOccupancy(r.comm, r.blocks, r.occ); err != nil {
		return fmt.Errorf("%v: boundary-occupancy sync: %w", r.opt.Algo, err)
	}
	return nil
}

// switchOpt is the serial router's step 5 over r.wires against r.occ.
func (r *rank) switchOpt(ctx context.Context, s *pipeline.Session) (err error) {
	r.sum.SwitchFlips, r.sum.SwitchableWs, err = route.OptimizeSwitchable(ctx, r.ropt.Workers, r.wires, r.occ, r.rt.Rand, r.ropt.SwitchPasses)
	s.Count("switch-flips", int64(r.sum.SwitchFlips))
	return err
}

// gather sends the rank's wires and counters — its own bodies' plus those
// the serial router's stages kept — to rank 0, which keeps every rank's in
// r.out.
func (r *rank) gather(*pipeline.Session) error {
	sum := r.sum
	sum.InsertedFts += r.rt.InsertedFts
	sum.ForcedEdges += r.rt.ForcedEdges
	sum.CoarseFlips += r.rt.CoarseFlips
	sum.Phases = r.rec.Phases()
	wbs, err := mp.Gather(r.comm, 0, tagWires, WireBatch{Wires: r.wires})
	if err != nil {
		return fmt.Errorf("%v: result gather: %w", r.opt.Algo, err)
	}
	sums, err := mp.Gather(r.comm, 0, tagSummary, sum)
	if err != nil {
		return fmt.Errorf("%v: result gather: %w", r.opt.Algo, err)
	}
	if r.comm.Rank() == 0 {
		r.out.wireBatches, r.out.summaries = wbs, sums
	}
	return nil
}

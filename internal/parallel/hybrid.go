package parallel

import (
	"context"
	"fmt"
	"slices"

	"parroute/internal/geom"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/partition"
	"parroute/internal/pipeline"
)

// hybridStages is the hybrid pin-partition algorithm (§6): row-wise through
// feedthrough assignment, but net connection (step 4) is done for each
// *whole* net by a single owner, eliminating the duplicated boundary-channel
// wiring of independent sub-net connection (the paper's Figure 3 artifact).
// "stitch" first redistributes the resulting wires to channel owners — the
// step with no row-wise counterpart — and is row-wise again from there.
func hybridStages(r *rank) []pipeline.Stage {
	stages := []pipeline.Stage{stage("crossings", r.crossings), stage("subcircuit", r.subcircuit)}
	stages = append(stages, r.serial("steiner", "coarse", "ft-insert", "ft-assign")...)
	return append(stages,
		pipeline.Func("connect", func(ctx context.Context, s *pipeline.Session) error {
			// Steps 1–3's state is read no more: drop it before connect and stitch.
			r.rt.Segs, r.rt.Grid, r.rt.FtPinsByRow = nil, nil, nil
			return r.connectWhole(ctx, s, nil)
		}),
		stage("stitch", func(*pipeline.Session) error {
			if err := r.redistribute(); err != nil {
				return err
			}
			return r.boundaryStitch()
		}),
		pipeline.Func("switch-opt", r.switchOpt),
		stage("gather", r.gather))
}

// redistribute moves the wires the net owners connected to the ranks owning
// their channels; switchable wires go to the owner of their row, whose two
// candidate channels they alternate between. The wires a rank keeps are its
// batch to itself, compacted in place (the k-th is read from index k or
// later), and assembleWires joins the received ones to them in the same
// array when it has room: only the wires that move are copied.
func (r *rank) redistribute() error {
	numRows, self := len(r.base.Rows), r.comm.Rank()
	destOf := func(w *metrics.Wire) int {
		if w.Switchable {
			return partition.BlockOf(r.blocks, int(w.ARow))
		}
		return partition.BlockOf(r.blocks, geom.Min(int(w.Channel), numRows-1))
	}
	counts := make([]int, r.comm.Size())
	for i := range r.wires {
		counts[destOf(&r.wires[i])]++
	}
	counts[self] = 0
	out := make([]WireBatch, r.comm.Size())
	for k := range out {
		out[k].Wires = slices.Grow(out[k].Wires, counts[k])
	}
	out[self].Wires = r.wires[:0]
	for i := range r.wires {
		dest := destOf(&r.wires[i])
		out[dest].Wires = append(out[dest].Wires, r.wires[i])
	}
	in, err := mp.Alltoall(r.comm, tagWiresRedist, out)
	if err != nil {
		return fmt.Errorf("hybrid: wire redistribution: %w", err)
	}
	r.wires, err = assembleWires(in, self, tagWiresRedist, r.sub.NumChannels())
	return err
}

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
			return r.connectWhole(ctx, s)
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
// candidate channels they alternate between.
func (r *rank) redistribute() error {
	numRows := len(r.base.Rows)
	destOf := func(w *metrics.Wire) int {
		if w.Switchable {
			return partition.BlockOf(r.blocks, w.Row)
		}
		return partition.BlockOf(r.blocks, geom.Min(w.Channel, numRows-1))
	}
	counts := make([]int, r.comm.Size())
	for i := range r.wires {
		counts[destOf(&r.wires[i])]++
	}
	out := make([]WireBatch, r.comm.Size())
	for k := range out {
		out[k].Wires = slices.Grow(out[k].Wires, counts[k])
	}
	for i := range r.wires {
		dest := destOf(&r.wires[i])
		out[dest].Wires = append(out[dest].Wires, r.wires[i])
	}
	in, err := mp.Alltoall(r.comm, tagWiresRedist, anys(out))
	if err != nil {
		return fmt.Errorf("hybrid: wire redistribution: %w", err)
	}
	r.wires, err = concatWires(in, tagWiresRedist, r.sub.NumChannels())
	return err
}

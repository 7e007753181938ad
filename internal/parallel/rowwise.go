package parallel

import "parroute/internal/pipeline"

// rowWiseStages is the row-wise pin-partition algorithm (§4).
//
//  1. crossings: fake pins where the Steiner trees of the nets a rank owns
//     cross partition boundaries, exchanged all-to-all.
//  2. subcircuit: each rank's rows' pins plus its boundary fake pins.
//  3. The full serial TWGR pipeline through net connection on that
//     sub-circuit — the pins on partition boundaries are ordinary net pins
//     there, so boundary connections happen during normal net connection,
//     before switchable optimization, as the paper requires.
//  4. stitch: the occupancy of each shared boundary channel is exchanged
//     with the neighbor; then the serial step 5 against it.
//  5. gather: wires and counters merge at rank 0.
func rowWiseStages(r *rank) []pipeline.Stage {
	stages := []pipeline.Stage{stage("crossings", r.crossings), stage("subcircuit", r.subcircuit)}
	stages = append(stages, r.serial("steiner", "coarse", "ft-insert", "ft-assign", "connect")...)
	return append(stages,
		stage("stitch", func(*pipeline.Session) error {
			r.wires = r.rt.Wires
			return r.boundaryStitch()
		}),
		pipeline.Func("switch-opt", r.switchOpt),
		stage("gather", r.gather))
}

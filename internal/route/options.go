// Package route implements TWGR, the TimberWolfSC global router, as the
// five-step pipeline the paper describes (§2): Steiner trees, coarse global
// routing with L-flip improvement, feedthrough insertion, feedthrough
// assignment, net connection, and switchable-segment optimization.
//
// The phases are exposed individually so the parallel algorithms in
// internal/parallel can orchestrate them per worker; Route runs them all.
// Step 4 emits channel wires ([]metrics.Wire) and nothing else: the density
// sweep, step 5, the parallel drivers and Router.Verify all read those.
package route

// Options are the router's tuning knobs. The zero value is not usable;
// call Normalize (Route and NewRouter do it for you).
type Options struct {
	// Seed drives every randomized decision (segment visit order in steps
	// 2 and 5). Two runs with equal options and circuit are identical.
	Seed uint64
	// GridWidth fixes the coarse grid's horizontal extent in x units (and
	// is the least extent of step 4's occupancy); 0 means the routed
	// circuit's own core width. The row-partitioned parallel algorithms
	// set it to the full design's width, because a rank's sub-circuit
	// holds only its block's rows and is narrower than the design.
	GridWidth int
	// CoarsePasses is how many random full sweeps of L-flip improvement
	// step 2 performs. Default 3.
	CoarsePasses int
	// SwitchPasses is how many random full sweeps step 5 performs over the
	// switchable segments. Default 3.
	SwitchPasses int
	// Workers bounds the goroutines a stage runs on. The order-free work —
	// steiner trees, the coarse grid load, feedthrough insertion and
	// sorting, net-connection trees, the density sweep — writes disjoint
	// slots; the three sweeps whose visit order is part of the result —
	// coarse flips, wire placement, switch flips — run as row bands that
	// keep that order wherever two visits can touch the same channel
	// (workpool.Sweep). Routing output is therefore byte-identical at every
	// setting and Workers is purely a wall-clock knob. Default 1 (every
	// stage inline on the calling goroutine).
	Workers int
}

// Normalize fills zero fields with defaults.
func (o *Options) Normalize() {
	if o.CoarsePasses <= 0 {
		o.CoarsePasses = 3
	}
	if o.SwitchPasses <= 0 {
		o.SwitchPasses = 3
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
}

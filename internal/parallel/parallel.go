// Package parallel implements the paper's three parallel global-routing
// algorithms on top of the serial TWGR pipeline (internal/route) and the
// message-passing substrate (internal/mp):
//
//   - RowWise (§4): rows are partitioned contiguously across workers; nets
//     are split into sub-nets with fake pins at the partition boundaries
//     (placed where their Steiner-tree segments cross); every worker runs
//     the full TWGR pipeline on its sub-circuit, synchronizing shared
//     boundary channels with its neighbors before switchable-segment
//     optimization.
//   - NetWise (§5): nets and their pins are partitioned by a weight
//     heuristic; the coarse-routing grid and the channel occupancies are
//     replicated and synchronized periodically, crossings are shipped to
//     row owners for feedthrough assignment, and every net is connected by
//     its owner.
//   - Hybrid (§6): row-wise everywhere, except that step 4 connects every
//     net whole at a single owner, removing the duplicated boundary-channel
//     wiring that costs the row-wise algorithm quality.
//
// All three run on any mp engine; under mp.Virtual the returned result
// carries the simulated parallel runtime of the modeled machine.
package parallel

import (
	"context"
	"errors"
	"fmt"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/partition"
	"parroute/internal/pipeline"
	"parroute/internal/route"
)

// Algorithm selects one of the paper's three parallel algorithms.
type Algorithm int

const (
	RowWise Algorithm = iota
	NetWise
	Hybrid
)

func (a Algorithm) String() string {
	if names := [...]string{"rowwise", "netwise", "hybrid"}; a >= 0 && int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists all three, in the paper's presentation order.
func Algorithms() []Algorithm { return []Algorithm{RowWise, NetWise, Hybrid} }

// Options configures a parallel routing run.
type Options struct {
	Algo  Algorithm
	Procs int
	// Mode selects the mp engine; Model is its cost model under
	// mp.Virtual (zero value: mp.SMP()).
	Mode  mp.Mode
	Model mp.CostModel
	// Route carries the serial router's knobs; Route.Seed also seeds the
	// per-worker streams.
	Route route.Options
	// Net selects the net-partition heuristic (paper §5). The zero value
	// is PinWeight, the paper's recommendation.
	Net partition.Config
	// NetwiseSyncPerPass is how many grid/occupancy synchronizations the
	// net-wise algorithm performs per improvement pass. More syncs mean
	// fresher shared state (better quality) and more communication (worse
	// runtime) — the trade-off of §7.2. Negative means no mid-phase syncs
	// at all: every rank optimizes against the phase-start snapshot plus
	// its own changes ("the blindness of each processor"). Default 4 —
	// "the routing quality is controlled by frequent synchronization but
	// this reduces the runtime performance".
	NetwiseSyncPerPass int
	// Chaos, when non-nil, runs the workers under deterministic fault
	// injection (see mp.Config.Chaos). The result carries the fault tallies; if
	// the plan kills a rank, Run degrades to the serial algorithm.
	Chaos *mp.Plan
	// Dist, when non-nil, places this process at one rank of a
	// multi-process TCP mesh (see mp.NetConfig); requires Mode == mp.TCP
	// and Dist.Ranks == Procs. Run then executes only this process's
	// rank: rank 0 gathers and returns the merged result, every other
	// rank returns (nil, nil) once its worker finishes.
	Dist *mp.NetConfig
	// Limits bounds per-message waits on the real-time engines.
	Limits mp.Limits
	// Observers join every worker's pipeline session (and the serial
	// session under RunBaseline). One observer instance is shared across
	// all ranks, so implementations must be safe for concurrent use on
	// the real-time engines. Observers cannot affect routing output.
	Observers []pipeline.Observer

	// onEngine, when set (tests only), observes the constructed engine
	// before the run so chaos event logs can be inspected afterwards.
	onEngine func(mp.Engine)
}

func (o *Options) normalize() error {
	if o.Procs <= 0 {
		return fmt.Errorf("parallel: Procs must be positive, got %d", o.Procs)
	}
	o.Route.Normalize()
	if o.NetwiseSyncPerPass == 0 {
		o.NetwiseSyncPerPass = 4
	}
	if o.NetwiseSyncPerPass < 0 {
		o.NetwiseSyncPerPass = 0 // explicit "never sync mid-phase"
	}
	return nil
}

// workerSeed derives the RNG seed of one worker so that a single-worker
// run consumes exactly the serial router's stream (rank 0 gets the base
// seed).
func workerSeed(base uint64, rank int) uint64 {
	return base + uint64(rank)*0x9e3779b97f4a7c15
}

// Run routes the circuit with the selected parallel algorithm and returns
// the merged result. The input circuit is not modified. The result's
// Elapsed is the simulated machine time under mp.Virtual and wall time
// otherwise. Cancelling ctx aborts the run on every rank — including
// ranks blocked in sends, receives or barriers — with an error wrapping
// ctx.Err(); no goroutines are leaked.
func Run(ctx context.Context, c *circuit.Circuit, opt Options) (*metrics.Result, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if len(c.Rows) < opt.Procs {
		return nil, fmt.Errorf("parallel: %d workers for %d rows", opt.Procs, len(c.Rows))
	}
	blocks, err := partition.RowBlocks(c, opt.Procs)
	if err != nil {
		return nil, err
	}
	owner, err := partition.Nets(c, blocks, opt.Procs, opt.Net)
	if err != nil {
		return nil, err
	}

	if opt.Dist != nil && opt.Dist.Ranks != opt.Procs {
		return nil, fmt.Errorf("parallel: Dist.Ranks %d must equal Procs %d", opt.Dist.Ranks, opt.Procs)
	}
	out := &runOutput{}
	cfg := mp.Config{Procs: opt.Procs, Mode: opt.Mode, Model: opt.Model, Limits: opt.Limits, Chaos: opt.Chaos, Net: opt.Dist}
	drivers := [...]func(*rank) []pipeline.Stage{RowWise: rowWiseStages, NetWise: netWiseStages, Hybrid: hybridStages}
	if opt.Algo < 0 || int(opt.Algo) >= len(drivers) {
		return nil, fmt.Errorf("parallel: unknown algorithm %v", opt.Algo)
	}
	stages := drivers[opt.Algo]
	worker := func(comm mp.Comm) error { return runRank(ctx, comm, c, blocks, owner, opt, out, stages) }
	eng, err := cfg.Engine()
	if err != nil {
		return nil, err
	}
	chaos, _ := eng.(*mp.ChaosEngine)
	if opt.onEngine != nil {
		opt.onEngine(eng)
	}
	elapsed, err := eng.Run(ctx, opt.Procs, worker)
	workerRank := opt.Dist != nil && opt.Dist.Rank != 0
	if err != nil {
		if errors.Is(err, mp.ErrRankLost) && ctx.Err() == nil && !workerRank {
			// Graceful degradation: a rank died mid-phase; the parallel
			// result is unrecoverable, so rank 0 reroutes serially. A
			// non-zero dist rank just reports the loss — the result
			// lives with rank 0's process.
			return degrade(ctx, c, opt, chaos, err)
		}
		return nil, err
	}
	if workerRank {
		return nil, nil // only rank 0 gathers; this process's work is done
	}
	if out.summaries == nil {
		return nil, fmt.Errorf("parallel: run completed without a result")
	}
	res, err := out.merge(c, opt)
	if err != nil {
		return nil, err
	}
	res.Algo = opt.Algo.String()
	res.Procs = opt.Procs
	res.Elapsed = elapsed
	attachFaults(res, chaos)
	return res, nil
}

// degrade falls back to the serial pipeline after a rank loss. The result
// is exactly RunBaseline's, marked Degraded, with the fault tallies of
// the aborted parallel attempt attached.
func degrade(ctx context.Context, c *circuit.Circuit, opt Options, chaos *mp.ChaosEngine, cause error) (*metrics.Result, error) {
	res, err := RunBaseline(ctx, c, opt)
	if err != nil {
		return nil, fmt.Errorf("parallel: serial fallback after %w: %w", cause, err)
	}
	res.Degraded = true
	attachFaults(res, chaos)
	return res, nil
}

// attachFaults copies the chaos engine's tallies onto the result (no-op
// without chaos).
func attachFaults(res *metrics.Result, chaos *mp.ChaosEngine) {
	if chaos == nil {
		return
	}
	f := chaos.Snapshot()
	res.Faults = &f
}

// RunBaseline routes serially with the same route options, producing the
// "1 processor" reference row of the paper's tables. Elapsed is the sum
// of stage wall times as read through the observer clock, directly
// comparable to the Virtual engine's simulated times (worker compute
// spans are measured the same way).
func RunBaseline(ctx context.Context, c *circuit.Circuit, opt Options) (*metrics.Result, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	rt := route.NewRouter(c.Fork(), opt.Route)
	return rt.Run(ctx, opt.Observers...)
}

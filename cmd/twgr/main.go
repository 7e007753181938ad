// twgr routes a standard-cell circuit with the TimberWolfSC-style global
// router, serially or with one of the paper's three parallel algorithms.
//
// Usage:
//
//	twgr -preset primary2                        # serial TWGR
//	twgr -preset avq.large -algo rowwise -p 8    # parallel, simulated SMP
//	twgr -in circuit.json -algo hybrid -p 4 -platform dmp
//	twgr -preset biomed -algo netwise -p 8 -engine inproc
//
// With -addr/-rank/-ranks, N separate twgr processes form one TCP mesh
// and route the circuit together (rank 0 reports the result):
//
//	twgr -preset primary2 -algo hybrid -engine tcp -addr 127.0.0.1:9300 -rank 0 -ranks 2
//	twgr -preset primary2 -algo hybrid -engine tcp -addr 127.0.0.1:9300 -rank 1 -ranks 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"parroute/internal/channel"
	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/parallel"
	"parroute/internal/pipeline"
	"parroute/internal/route"
	"parroute/internal/runcfg"
	"parroute/internal/viz"
)

func main() {
	run := runcfg.Default()
	sel := runcfg.DefaultCircuit()
	var dist runcfg.Dist
	runcfg.AddFlags(flag.CommandLine, &run)
	runcfg.AddCircuitFlags(flag.CommandLine, &sel)
	runcfg.AddDistFlags(flag.CommandLine, &dist)
	var (
		tracks  = flag.Bool("tracks", false, "run the detailed channel router on the result and report assigned tracks")
		svg     = flag.String("svg", "", "write the routed layout as SVG (serial algorithm only)")
		compare = flag.Bool("compare", false, "also run the serial baseline and report scaled quality")
		out     = flag.String("out", "", "write the routing result (wires + quality numbers) as JSON")
		verify  = flag.Bool("verify", false, "check routing invariants after the run (serial algorithm only)")
		verbose = flag.Bool("v", false, "print per-phase timings")
		trace   = flag.String("trace", "", "write the per-stage timeline (times, counters) as JSON")
		checkTr = flag.String("checktrace", "", "validate a -trace file and print its summary instead of routing")
		all     = false
	)
	flag.Parse()

	if *checkTr != "" {
		if err := checkTrace(*checkTr); err != nil {
			fatalf("%v", err)
		}
		return
	}

	// "all" is CLI sugar for the comparison table; the shared config only
	// knows real algorithms, so resolve it before building options.
	if run.Algo == "all" {
		all = true
		run.Algo = runcfg.AlgoSerial
	}
	// Only the serial router keeps a routed circuit to check or draw, so
	// refuse before the circuit loads, not after the route.
	if (*verify || *svg != "") && !run.Serial() {
		fatalf("-verify and -svg require -algo serial (a parallel run keeps no routed circuit)")
	}

	c, err := sel.Load()
	if err != nil {
		fatalf("%v", err)
	}
	st := c.ComputeStats()
	fmt.Printf("circuit %s: %d rows, %d cells, %d nets, %d pins\n",
		st.Name, st.Rows, st.Cells, st.Nets, st.Pins)

	opts, err := run.Options()
	if err != nil {
		fatalf("%v", err)
	}
	if err := dist.Apply(&run, &opts); err != nil {
		fatalf("%v", err)
	}
	if dist.Addr != "" && (all || *compare) {
		// Both rerun parallel.Run, and each call would re-rendezvous the
		// whole mesh; a multi-process run routes exactly once.
		fatalf("-addr runs one algorithm once; drop -compare / -algo all")
	}

	ctx := context.Background()
	if run.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, run.Timeout)
		defer cancel()
	}

	if all {
		compareAll(ctx, c, opts)
		return
	}

	var res *metrics.Result
	var rt *route.Router // the serial router, for -verify and -svg
	if run.Serial() {
		rt = route.NewRouter(c.Fork(), opts.Route)
		res, err = rt.Run(ctx)
	} else {
		res, err = parallel.Run(ctx, c, opts)
	}
	if err != nil {
		fatalf("routing: %v", timeoutHint(err, run.Timeout))
	}
	if *verify {
		if err := rt.Verify(); err != nil {
			fatalf("verification failed: %v", err)
		}
		fmt.Println("verification passed: every net electrically complete, all invariants hold")
	}
	if res == nil {
		// A non-zero rank of a multi-process mesh: its worker ran to
		// completion and the merged result was gathered by rank 0's
		// process, so there is nothing to report (or write) here.
		fmt.Printf("rank %d finished; the merged result is reported by rank 0\n", dist.Rank)
		return
	}

	report(res, *verbose)
	if *tracks {
		sum := channel.RouteAll(c.NumChannels(), res.Wires)
		fmt.Printf("detailed channel routing: %d assigned tracks (density lower bound %d, "+
			"%d vertical constraints broken)"+"\n",
			sum.AssignedTracks, sum.DensityTracks, sum.BrokenConstraints)
	}
	if *svg != "" {
		f, err := os.Create(*svg)
		if err != nil {
			fatalf("%v", err)
		}
		if err := viz.WriteSVG(f, rt.C, res.Wires, viz.Options{}); err != nil {
			f.Close()
			fatalf("rendering: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("writing svg: %v", err)
		}
		fmt.Printf("layout written to %s"+"\n", *svg)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		if err := res.WriteJSON(f); err != nil {
			f.Close()
			fatalf("writing result: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("writing result: %v", err)
		}
		fmt.Printf("result written to %s"+"\n", *out)
	}
	if *trace != "" {
		if err := writeTrace(*trace, pipeline.NewTrace(res)); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("trace written to %s"+"\n", *trace)
	}
	if *compare && !run.Serial() {
		base, err := parallel.RunBaseline(ctx, c, opts)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		fmt.Printf("vs serial: scaled tracks %.3f, scaled area %.3f, speedup %.2f\n",
			res.ScaledTracks(base), res.ScaledArea(base), res.Speedup(base))
	}
}

// compareAll runs the serial baseline and all three parallel algorithms,
// printing one comparison row each.
func compareAll(ctx context.Context, c *circuit.Circuit, opts parallel.Options) {
	base, err := parallel.RunBaseline(ctx, c, opts)
	if err != nil {
		fatalf("baseline: %v", err)
	}
	fmt.Printf("%-8s  %10s  %8s  %13s  %12s\n", "algo", "time", "speedup", "scaled tracks", "feedthroughs")
	fmt.Printf("%-8s  %10v  %8s  %13s  %12d\n", "serial", base.Elapsed, "1.00", "1.000", base.Feedthroughs)
	for _, algo := range parallel.Algorithms() {
		o := opts
		o.Algo = algo
		res, err := parallel.Run(ctx, c, o)
		if err != nil {
			fatalf("%v: %v", algo, err)
		}
		fmt.Printf("%-8v  %10v  %8.2f  %13.3f  %12d\n",
			algo, res.Elapsed, res.Speedup(base), res.ScaledTracks(base), res.Feedthroughs)
	}
}

func report(res *metrics.Result, verbose bool) {
	fmt.Printf("algorithm %s on %d proc(s): %v\n", res.Algo, res.Procs, res.Elapsed)
	fmt.Printf("  total tracks: %d\n", res.TotalTracks)
	fmt.Printf("  area:         %d\n", res.Area)
	fmt.Printf("  wirelength:   %d\n", res.Wirelength)
	fmt.Printf("  feedthroughs: %d\n", res.Feedthroughs)
	fmt.Printf("  switchable:   %d wires, %d flips\n", res.SwitchableWires, res.SwitchFlips)
	if res.ForcedEdges > 0 {
		fmt.Printf("  WARNING: %d forced edges (connectivity gaps)\n", res.ForcedEdges)
	}
	if res.Degraded {
		fmt.Printf("  DEGRADED: a rank was lost mid-phase; this is the serial fallback result\n")
	}
	if res.Faults != nil {
		fmt.Printf("  faults:       %v\n", res.Faults)
	}
	if verbose {
		for _, ph := range res.Phases {
			fmt.Printf("  phase %-16s %v\n", ph.Name, ph.Elapsed)
		}
	}
}

// writeTrace writes the timeline to path (or stdout for "-").
func writeTrace(path string, tr *pipeline.Trace) error {
	if path == "-" {
		return pipeline.WriteTrace(os.Stdout, tr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pipeline.WriteTrace(f, tr); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// checkTrace validates a trace file written by -trace and prints a
// one-line-per-stage summary — the CI smoke step for the trace schema.
func checkTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := pipeline.ReadTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(tr.Stages) == 0 {
		return fmt.Errorf("%s: trace has no stages", path)
	}
	var total time.Duration
	for _, st := range tr.Stages {
		if st.Name == "" {
			return fmt.Errorf("%s: trace has an unnamed stage", path)
		}
		total += st.Elapsed
	}
	fmt.Printf("trace ok: %s %s on %d proc(s), %d stages, %v total\n",
		tr.Circuit, tr.Algo, tr.Procs, len(tr.Stages), total)
	for _, st := range tr.Stages {
		fmt.Printf("  stage %-16s %v", st.Name, st.Elapsed)
		for _, c := range st.Counters {
			fmt.Printf("  %s=%d", c.Name, c.Value)
		}
		fmt.Println()
	}
	return nil
}

// timeoutHint labels cancellation errors with the flag that caused them.
func timeoutHint(err error, timeout time.Duration) error {
	if timeout > 0 && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
		return fmt.Errorf("run exceeded -timeout %v: %w", timeout, err)
	}
	return err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "twgr: "+format+"\n", args...)
	os.Exit(1)
}

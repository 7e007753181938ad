// Package bench regenerates the paper's evaluation artifacts: Table 1
// (circuit characteristics), Tables 2-4 with Figures 4-6 (scaled track
// counts and speedups of the three parallel algorithms), Table 5 (the
// hybrid algorithm across the SMP and DMP platform models), and the two
// ablations DESIGN.md calls out (net-partition heuristics, net-wise
// synchronization frequency).
//
// cmd/benchtab prints the full experiments; the repository-root benchmark
// suite (bench_test.go) drives the same code under `go test -bench`.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/parallel"
	"parroute/internal/partition"
	"parroute/internal/route"
)

// Config selects what to run.
type Config struct {
	// Circuits to include (preset names). Default: the paper's six.
	Circuits []string
	// Procs are the worker counts of the scaled-track tables. Default
	// 1, 2, 4, 8 (the paper's SparcCenter columns).
	Procs []int
	// Seed drives circuit synthesis and routing.
	Seed uint64
	// Reps repeats each timed run and keeps the fastest, smoothing
	// measurement noise in the simulated times. Default 1.
	Reps int
}

// Normalize fills defaults.
func (c *Config) Normalize() {
	if len(c.Circuits) == 0 {
		c.Circuits = gen.CircuitNames()
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{1, 2, 4, 8}
	}
	if c.Reps <= 0 {
		c.Reps = 1
	}
}

// Suite caches generated circuits and serial baselines so the tables and
// figures that share runs do not recompute them.
type Suite struct {
	cfg      Config
	circuits map[string]*circuit.Circuit
	bases    map[string]*metrics.Result
	runs     map[runKey]*metrics.Result
}

type runKey struct {
	circuit string
	algo    parallel.Algorithm
	procs   int
	model   string
	sync    int
	method  partition.Method
}

// NewSuite prepares a suite for the given configuration.
func NewSuite(cfg Config) *Suite {
	cfg.Normalize()
	return &Suite{
		cfg:      cfg,
		circuits: make(map[string]*circuit.Circuit),
		bases:    make(map[string]*metrics.Result),
		runs:     make(map[runKey]*metrics.Result),
	}
}

// Circuit returns (generating and caching) a named benchmark circuit.
func (s *Suite) Circuit(name string) (*circuit.Circuit, error) {
	if c, ok := s.circuits[name]; ok {
		return c, nil
	}
	c, err := gen.Benchmark(name, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.circuits[name] = c
	return c, nil
}

// Baseline returns the cached serial result for a circuit. Timing keeps
// the fastest of Reps runs.
func (s *Suite) Baseline(name string) (*metrics.Result, error) {
	if r, ok := s.bases[name]; ok {
		return r, nil
	}
	c, err := s.Circuit(name)
	if err != nil {
		return nil, err
	}
	// Results are deterministic across reps; only timing varies. Keep the
	// fastest.
	var best *metrics.Result
	for rep := 0; rep < s.cfg.Reps; rep++ {
		runtime.GC() // keep earlier runs' garbage out of this run's compute spans
		r, err := parallel.RunBaseline(context.Background(), c, parallel.Options{
			Procs: 1, Route: route.Options{Seed: s.cfg.Seed + 1},
		})
		if err != nil {
			return nil, err
		}
		if best == nil || r.Elapsed < best.Elapsed {
			best = r
		}
	}
	s.bases[name] = best
	return best, nil
}

// Run returns the cached parallel result for (circuit, algo, procs) under
// the given cost model (empty model name = SMP).
func (s *Suite) Run(name string, algo parallel.Algorithm, procs int,
	model mp.CostModel, sync int, method partition.Method) (*metrics.Result, error) {

	key := runKey{circuit: name, algo: algo, procs: procs, model: model.Name,
		sync: sync, method: method}
	if r, ok := s.runs[key]; ok {
		return r, nil
	}
	c, err := s.Circuit(name)
	if err != nil {
		return nil, err
	}
	var best *metrics.Result
	for rep := 0; rep < s.cfg.Reps; rep++ {
		runtime.GC() // keep earlier runs' garbage out of this run's compute spans
		r, err := parallel.Run(context.Background(), c, parallel.Options{
			Algo:               algo,
			Procs:              procs,
			Mode:               mp.Virtual,
			Model:              model,
			Route:              route.Options{Seed: s.cfg.Seed + 1},
			Net:                partition.Config{Method: method},
			NetwiseSyncPerPass: sync,
		})
		if err != nil {
			return nil, err
		}
		if best == nil || r.Elapsed < best.Elapsed {
			best = r
		}
	}
	s.runs[key] = best
	return best, nil
}

// writeTable renders rows with a header through a tabwriter.
func writeTable(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "\n%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Table1 prints the circuit characteristics table.
func (s *Suite) Table1(w io.Writer) error {
	rows := make([][]string, 0, len(s.cfg.Circuits))
	for _, name := range s.cfg.Circuits {
		c, err := s.Circuit(name)
		if err != nil {
			return err
		}
		st := c.ComputeStats()
		rows = append(rows, []string{
			name,
			fmt.Sprint(st.Rows), fmt.Sprint(st.Pins),
			fmt.Sprint(st.Cells), fmt.Sprint(st.Nets),
			fmt.Sprintf("%d", st.MaxDeg),
		})
	}
	writeTable(w, "Table 1: characteristics of test circuits (synthetic, MCNC-like)",
		[]string{"circuit", "rows", "pins", "cells", "nets", "max-degree"}, rows)
	return nil
}

// algoForTable maps table/figure numbers to algorithms: Table 2/Figure 4
// row-wise, Table 3/Figure 5 net-wise, Table 4/Figure 6 hybrid.
func algoForTable(table int) (parallel.Algorithm, error) {
	switch table {
	case 2:
		return parallel.RowWise, nil
	case 3:
		return parallel.NetWise, nil
	case 4:
		return parallel.Hybrid, nil
	}
	return 0, fmt.Errorf("bench: no scaled-track table %d", table)
}

// ScaledTracks prints Table 2, 3 or 4: scaled track counts per circuit
// and worker count for the table's algorithm.
func (s *Suite) ScaledTracks(w io.Writer, table int) error {
	algo, err := algoForTable(table)
	if err != nil {
		return err
	}
	header := []string{"circuit"}
	for _, p := range s.cfg.Procs {
		header = append(header, fmt.Sprintf("%d proc", p))
	}
	var rows [][]string
	for _, name := range s.cfg.Circuits {
		base, err := s.Baseline(name)
		if err != nil {
			return err
		}
		row := []string{name}
		for _, p := range s.cfg.Procs {
			var scaled float64
			if p == 1 {
				scaled = 1
			} else {
				r, err := s.Run(name, algo, p, mp.SMP(), 0, partition.PinWeight)
				if err != nil {
					return err
				}
				scaled = r.ScaledTracks(base)
			}
			row = append(row, fmt.Sprintf("%.3f", scaled))
		}
		rows = append(rows, row)
	}
	writeTable(w, fmt.Sprintf("Table %d: scaled track results of the %v pin partition algorithm",
		table, algo), header, rows)
	return nil
}

// figureAlgo maps figure numbers to algorithms.
func figureAlgo(figure int) (parallel.Algorithm, error) {
	switch figure {
	case 4:
		return parallel.RowWise, nil
	case 5:
		return parallel.NetWise, nil
	case 6:
		return parallel.Hybrid, nil
	}
	return 0, fmt.Errorf("bench: no speedup figure %d", figure)
}

// Speedups prints Figure 4, 5 or 6 as a table of speedups per circuit and
// worker count (the paper plots these as bar charts).
func (s *Suite) Speedups(w io.Writer, figure int) error {
	algo, err := figureAlgo(figure)
	if err != nil {
		return err
	}
	var procs []int
	for _, p := range s.cfg.Procs {
		if p > 1 {
			procs = append(procs, p)
		}
	}
	header := []string{"circuit"}
	for _, p := range procs {
		header = append(header, fmt.Sprintf("%d procs", p))
	}
	if len(procs) > 0 {
		header = append(header, fmt.Sprintf("(bar: speedup at %d procs)", procs[len(procs)-1]))
	}
	var rows [][]string
	sums := make([]float64, len(procs))
	for _, name := range s.cfg.Circuits {
		base, err := s.Baseline(name)
		if err != nil {
			return err
		}
		row := []string{name}
		var last float64
		for i, p := range procs {
			r, err := s.Run(name, algo, p, mp.SMP(), 0, partition.PinWeight)
			if err != nil {
				return err
			}
			sp := r.Speedup(base)
			sums[i] += sp
			last = sp
			row = append(row, fmt.Sprintf("%.2f", sp))
		}
		row = append(row, bar(last, 8))
		rows = append(rows, row)
	}
	avg := []string{"(average)"}
	for i := range procs {
		avg = append(avg, fmt.Sprintf("%.2f", sums[i]/float64(len(s.cfg.Circuits))))
	}
	if len(procs) > 0 {
		avg = append(avg, bar(sums[len(procs)-1]/float64(len(s.cfg.Circuits)), 8))
	}
	rows = append(rows, avg)
	writeTable(w, fmt.Sprintf("Figure %d: speedup results of the %v pin partition algorithm "+
		"(simulated %s machine)", figure, algo, mp.SMP().Name), header, rows)
	return nil
}

// Table5 prints the hybrid algorithm's absolute results on both platform
// models: serial reference, then per-platform time/speedup/scaled quality.
func (s *Suite) Table5(w io.Writer, smpProcs, dmpProcs int) error {
	header := []string{"circuit", "serial tracks", "serial area", "serial time",
		fmt.Sprintf("SMP%d time", smpProcs), "speedup", "scaled trk", "scaled area",
		fmt.Sprintf("DMP%d time", dmpProcs), "speedup", "scaled trk", "scaled area"}
	var rows [][]string
	for _, name := range s.cfg.Circuits {
		base, err := s.Baseline(name)
		if err != nil {
			return err
		}
		smp, err := s.Run(name, parallel.Hybrid, smpProcs, mp.SMP(), 0, partition.PinWeight)
		if err != nil {
			return err
		}
		dmp, err := s.Run(name, parallel.Hybrid, dmpProcs, mp.DMP(), 0, partition.PinWeight)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			name,
			fmt.Sprint(base.TotalTracks),
			fmt.Sprint(base.Area),
			fmtMS(base),
			fmtMS(smp), fmt.Sprintf("%.2f", smp.Speedup(base)),
			fmt.Sprintf("%.3f", smp.ScaledTracks(base)),
			fmt.Sprintf("%.3f", smp.ScaledArea(base)),
			fmtMS(dmp), fmt.Sprintf("%.2f", dmp.Speedup(base)),
			fmt.Sprintf("%.3f", dmp.ScaledTracks(base)),
			fmt.Sprintf("%.3f", dmp.ScaledArea(base)),
		})
	}
	writeTable(w, fmt.Sprintf("Table 5: hybrid pin partition on the simulated SMP (%d procs) "+
		"and DMP (%d procs) platforms", smpProcs, dmpProcs), header, rows)
	return nil
}

func fmtMS(r *metrics.Result) string {
	return fmt.Sprintf("%.1fms", float64(r.Elapsed.Microseconds())/1000)
}

// AblationPartition compares the four net-partition heuristics (paper §5)
// on one clock-heavy circuit: load balance and resulting quality.
func (s *Suite) AblationPartition(w io.Writer, circuitName string, procs int) error {
	c, err := s.Circuit(circuitName)
	if err != nil {
		return err
	}
	base, err := s.Baseline(circuitName)
	if err != nil {
		return err
	}
	blocks, err := partition.RowBlocks(c, procs)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, m := range partition.Methods() {
		owner, err := partition.Nets(c, blocks, procs, partition.Config{Method: m})
		if err != nil {
			return err
		}
		load := partition.Load(c, owner, procs)
		steinerLoad := partition.SteinerLoad(c, owner, procs)
		r, err := s.Run(circuitName, parallel.Hybrid, procs, mp.SMP(), 0, m)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			m.String(),
			fmt.Sprintf("%.2f", load.Imbalance),
			fmt.Sprintf("%.2f", steinerLoad.Imbalance),
			fmt.Sprintf("%.3f", r.ScaledTracks(base)),
			fmtMS(r),
			fmt.Sprintf("%.2f", r.Speedup(base)),
		})
	}
	writeTable(w, fmt.Sprintf("Ablation: net-partition heuristics on %s, hybrid, %d procs",
		circuitName, procs),
		[]string{"method", "pin imbalance", "steiner imbalance", "scaled tracks", "time", "speedup"},
		rows)
	return nil
}

// AblationPlatform runs the hybrid algorithm across platform models and
// processor counts, reproducing Table 5's SparcCenter-vs-Paragon story:
// the DMP is slower per message but catches up with more nodes.
func (s *Suite) AblationPlatform(w io.Writer, circuitName string, procs []int) error {
	base, err := s.Baseline(circuitName)
	if err != nil {
		return err
	}
	c, err := s.Circuit(circuitName)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, model := range []mp.CostModel{mp.SMP(), mp.DMP()} {
		for _, p := range procs {
			if p > len(c.Rows) {
				continue
			}
			r, err := s.Run(circuitName, parallel.Hybrid, p, model, 0, partition.PinWeight)
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				fmt.Sprintf("%s @%d", model.Name, p),
				fmtMS(r),
				fmt.Sprintf("%.2f", r.Speedup(base)),
				fmt.Sprintf("%.3f", r.ScaledTracks(base)),
			})
		}
	}
	writeTable(w, fmt.Sprintf("Ablation: platform scaling on %s, hybrid (serial %s)",
		circuitName, fmtMS(base)),
		[]string{"platform@procs", "time", "speedup", "scaled tracks"}, rows)
	return nil
}

// AblationSync sweeps the net-wise synchronization frequency (§7.2): more
// syncs buy quality and cost time.
func (s *Suite) AblationSync(w io.Writer, circuitName string, procs int, syncs []int) error {
	base, err := s.Baseline(circuitName)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, sync := range syncs {
		r, err := s.Run(circuitName, parallel.NetWise, procs, mp.SMP(), sync, partition.PinWeight)
		if err != nil {
			return err
		}
		label := fmt.Sprint(sync)
		if sync < 0 {
			label = "none"
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%.3f", r.ScaledTracks(base)),
			fmtMS(r),
			fmt.Sprintf("%.2f", r.Speedup(base)),
			fmt.Sprint(r.SwitchFlips),
		})
	}
	writeTable(w, fmt.Sprintf("Ablation: net-wise synchronization frequency on %s, %d procs "+
		"(syncs per improvement pass)", circuitName, procs),
		[]string{"syncs/pass", "scaled tracks", "time", "speedup", "switch flips"}, rows)
	return nil
}

// bar renders a speedup as a proportional ASCII bar against the linear
// maximum, mirroring the paper's bar-chart figures.
func bar(v float64, max int) string {
	const width = 24
	n := int(v / float64(max) * width)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

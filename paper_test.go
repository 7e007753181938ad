package parroute_test

// The paper's evaluation as one drift-gated test: Table 1, Tables 2–4
// with Figures 4–6, Table 5 and the §5, §7.2 and platform ablations, routed
// on mp.Virtual at circuit seed 7 and route seed 8. Every deterministic
// column is committed once, in EXPERIMENTS.md, between
// <!-- paper:NAME --> and <!-- /paper:NAME --> markers, and the test
// compares those blocks cell by cell. The simulated times are charged from
// host wall time, so they go to one paper:timed block that is never
// compared. Rewrite every block (timing each run paperReps times) with
//
//	UPDATE_GOLDEN=1 go test -count=1 -run '^TestPaperTables$' .
//
// TestAllPresetsSerial, TestAllPresetsParallel and TestPaperTables share
// one suite, so each configuration routes once per package run, and the
// test that routes a result holds it to checkResult.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/parallel"
	"parroute/internal/partition"
	"parroute/internal/route"
)

const (
	paperDoc         = "EXPERIMENTS.md"
	paperReps        = 5
	paperCircuitSeed = 7
	paperAblation    = "avq.large" // the clock-heavy circuit of the ablations
)

// paperKey is one routed configuration; procs 0 is the serial baseline.
type paperKey struct {
	circuit string
	algo    parallel.Algorithm
	procs   int
	dmp     bool
	sync    int
	method  partition.Method
}

func (k paperKey) String() string {
	if k.procs == 0 {
		return k.circuit + "/serial"
	}
	model := "smp"
	if k.dmp {
		model = "dmp"
	}
	return fmt.Sprintf("%s/%v/%s%d/sync%d/%v", k.circuit, k.algo, model, k.procs, k.sync, k.method)
}

// paperRun keeps what the tables read of one configuration's result.
type paperRun struct {
	tracks, flips int
	area          int64
	times         []time.Duration // the simulated time of every rep
}

func (r *paperRun) scaled(base *paperRun) string {
	return fmt.Sprintf("%.3f", float64(r.tracks)/float64(base.tracks))
}

func (r *paperRun) scaledArea(base *paperRun) string {
	return fmt.Sprintf("%.3f", float64(r.area)/float64(base.area))
}

type paperSuite struct {
	t        *testing.T // the test now reading the suite
	reps     int
	circuits map[string]*circuit.Circuit
	runs     map[paperKey]*paperRun
	checking sync.WaitGroup // the one checkResult running beside the routing
}

func (s *paperSuite) circuit(name string) *circuit.Circuit {
	if c, ok := s.circuits[name]; ok {
		return c
	}
	c, err := gen.Benchmark(name, paperCircuitSeed)
	if err != nil {
		s.t.Fatal(err)
	}
	s.circuits[name] = c
	return c
}

func (s *paperSuite) base(name string) *paperRun { return s.run(paperKey{circuit: name}) }

// run routes k once per rep, holds the first result to checkResult (on a
// goroutine, beside the next routing) and every later rep to the first
// one's tracks.
func (s *paperSuite) run(k paperKey) *paperRun {
	if k.algo == parallel.NetWise && k.sync == 0 {
		k.sync = 4 // the default: the tables and the sync ablation share the run
	}
	if r, ok := s.runs[k]; ok {
		return r
	}
	c := s.circuit(k.circuit)
	opt := parallel.Options{
		Algo: k.algo, Procs: k.procs, Mode: mp.Virtual, Model: mp.SMP(),
		Route:              route.Options{Seed: paperCircuitSeed + 1},
		Net:                partition.Config{Method: k.method},
		NetwiseSyncPerPass: k.sync,
	}
	if k.dmp {
		opt.Model = mp.DMP()
	}
	r := &paperRun{}
	for rep := 0; rep < s.reps; rep++ {
		if s.reps > 1 {
			runtime.GC() // keep earlier runs' garbage out of the timed compute spans
		}
		var res *metrics.Result
		var err error
		if k.procs == 0 {
			res, err = parallel.RunBaseline(context.Background(), c, parallel.Options{Procs: 1, Route: opt.Route})
		} else {
			res, err = parallel.Run(context.Background(), c, opt)
		}
		if err != nil {
			s.t.Fatalf("%v: %v", k, err)
		}
		if rep == 0 {
			s.checking.Wait()
			s.checking.Add(1)
			go func(t *testing.T) {
				defer s.checking.Done()
				checkResult(t, k.String(), c.NumChannels(), res)
			}(s.t)
			if s.reps > 1 {
				s.checking.Wait() // nothing runs beside a timed rep
			}
			r.tracks, r.flips, r.area = res.TotalTracks, res.SwitchFlips, res.Area
		} else if res.TotalTracks != r.tracks {
			s.t.Fatalf("%v: rep %d routed %d tracks, rep 0 %d", k, rep, res.TotalTracks, r.tracks)
		}
		r.times = append(r.times, res.Elapsed)
	}
	s.runs[k] = r
	return r
}

var paperShared *paperSuite

// usePaper hands t the shared suite, which reports to t until the next
// test takes it. A check still running beside the routing ends with t.
func usePaper(t *testing.T) *paperSuite {
	if paperShared == nil {
		paperShared = &paperSuite{reps: 1, circuits: map[string]*circuit.Circuit{}, runs: map[paperKey]*paperRun{}}
		if os.Getenv("UPDATE_GOLDEN") != "" {
			paperShared.reps = paperReps
		}
	}
	paperShared.t = t
	t.Cleanup(paperShared.checking.Wait)
	return paperShared
}

// paperFull reports whether the evaluation runs whole: under -short or
// -race it routes primary2 and biomed only.
func paperFull() bool { return !testing.Short() && !raceBuild }

func paperCircuits() []string {
	if paperFull() {
		return gen.CircuitNames()
	}
	return gen.CircuitNames()[:2]
}

// paperTable is one Markdown table; the first cell of a row is its key.
type paperTable struct {
	name, title string
	header      []string
	rows        [][]string
}

func (tb *paperTable) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	tb.rows = append(tb.rows, row)
}

func (tb *paperTable) markdown() string {
	var b strings.Builder
	line := func(cells []string) { fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | ")) }
	line(tb.header)
	b.WriteString(strings.Repeat("|---", len(tb.header)) + "|\n")
	for _, row := range tb.rows {
		line(row)
	}
	return b.String()
}

// median renders the middle value of xs (sorted in place) and their range
// as "median (min–max)" in the given format.
func median(xs []float64, format string) string {
	slices.Sort(xs)
	mid := xs[len(xs)/2]
	if len(xs) == 1 {
		return fmt.Sprintf(format, mid)
	}
	return fmt.Sprintf(format+" ("+format+"–"+format+")", mid, xs[0], xs[len(xs)-1])
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// timed renders a run's simulated time and its speedup over the median
// serial time, one speedup per rep.
func timed(r, base *paperRun) (string, string) {
	b := millis(base.times)
	slices.Sort(b)
	serial := b[len(b)/2]
	t := millis(r.times)
	sp := make([]float64, len(t))
	for i, x := range t {
		sp[i] = serial / x
	}
	return median(t, "%.1f") + " ms", median(sp, "%.2f")
}

func (s *paperSuite) table1(circuits []string) paperTable {
	tb := paperTable{name: "table1", title: "Table 1",
		header: []string{"circuit", "rows", "pins", "cells", "nets", "max degree"}}
	for _, name := range circuits {
		st := s.circuit(name).ComputeStats()
		tb.add(name, st.Rows, st.Pins, st.Cells, st.Nets, st.MaxDeg)
	}
	return tb
}

var paperProcs = []int{2, 4, 8}

// tracks builds Table 2, 3 or 4 (total and scaled tracks of algo on the
// simulated SMP) and the speedup figure that shares its runs.
func (s *paperSuite) tracks(table, figure int, algo parallel.Algorithm, circuits []string) (paperTable, paperTable) {
	tb := paperTable{name: fmt.Sprintf("table%d", table), title: fmt.Sprintf("Table %d (%v)", table, algo),
		header: []string{"circuit", "serial tracks"}}
	fig := paperTable{title: fmt.Sprintf("Figure %d: %v speedup on the simulated SMP", figure, algo),
		header: []string{"circuit"}}
	for _, p := range paperProcs {
		tb.header = append(tb.header, fmt.Sprintf("P=%d tracks", p), fmt.Sprintf("P=%d scaled", p))
		fig.header = append(fig.header, fmt.Sprintf("P=%d", p))
	}
	avg := make([]float64, len(paperProcs))
	for _, name := range circuits {
		base := s.base(name)
		row, frow := []any{name, base.tracks}, []any{name}
		for i, p := range paperProcs {
			r := s.run(paperKey{circuit: name, algo: algo, procs: p})
			row = append(row, r.tracks, r.scaled(base))
			avg[i] += float64(r.tracks) / float64(base.tracks)
			_, sp := timed(r, base)
			frow = append(frow, sp)
		}
		tb.add(row...)
		fig.add(frow...)
	}
	if len(circuits) == len(gen.CircuitNames()) {
		row := []any{"(average)", "—"}
		for i := range paperProcs {
			row = append(row, "—", fmt.Sprintf("%.3f", avg[i]/float64(len(circuits))))
		}
		tb.add(row...)
	}
	return tb, fig
}

// table5 builds Table 5: hybrid on the simulated SMP at 8 processors and
// DMP at 16, quality against the serial router, and its timed half.
func (s *paperSuite) table5(circuits []string) (paperTable, paperTable) {
	tb := paperTable{name: "table5", title: "Table 5", header: []string{"circuit", "serial tracks", "serial area",
		"SMP8 tracks", "SMP8 scaled tracks", "SMP8 area", "SMP8 scaled area",
		"DMP16 tracks", "DMP16 scaled tracks", "DMP16 area", "DMP16 scaled area"}}
	tm := paperTable{title: "Table 5: simulated times and speedups",
		header: []string{"circuit", "serial time", "SMP8 time", "SMP8 speedup", "DMP16 time", "DMP16 speedup"}}
	for _, name := range circuits {
		base := s.base(name)
		smp := s.run(paperKey{circuit: name, algo: parallel.Hybrid, procs: 8})
		dmp := s.run(paperKey{circuit: name, algo: parallel.Hybrid, procs: 16, dmp: true})
		tb.add(name, base.tracks, base.area,
			smp.tracks, smp.scaled(base), smp.area, smp.scaledArea(base),
			dmp.tracks, dmp.scaled(base), dmp.area, dmp.scaledArea(base))
		st, ss := timed(smp, base)
		dt, ds := timed(dmp, base)
		tm.add(name, median(millis(base.times), "%.1f")+" ms", st, ss, dt, ds)
	}
	return tb, tm
}

// partitionAblation compares the four net-partition heuristics (paper §5)
// on the ablation circuit: hybrid, 8 processors, simulated SMP.
func (s *paperSuite) partitionAblation() (paperTable, paperTable) {
	const procs = 8
	tb := paperTable{name: "partition", title: "Partition ablation",
		header: []string{"method", "pin imbalance", "Steiner imbalance", "tracks", "scaled tracks"}}
	tm := paperTable{title: fmt.Sprintf("Partition ablation (%s, hybrid, SMP, P=%d)", paperAblation, procs),
		header: []string{"method", "time", "speedup"}}
	c, base := s.circuit(paperAblation), s.base(paperAblation)
	blocks, err := partition.RowBlocks(c, procs)
	if err != nil {
		s.t.Fatal(err)
	}
	for _, m := range partition.Methods() {
		owner, err := partition.Nets(c, blocks, procs, partition.Config{Method: m})
		if err != nil {
			s.t.Fatal(err)
		}
		r := s.run(paperKey{circuit: paperAblation, algo: parallel.Hybrid, procs: procs, method: m})
		tb.add(m, fmt.Sprintf("%.3f", partition.Load(c, owner, procs).Imbalance),
			fmt.Sprintf("%.3f", partition.SteinerLoad(c, owner, procs).Imbalance), r.tracks, r.scaled(base))
		t, sp := timed(r, base)
		tm.add(m, t, sp)
	}
	return tb, tm
}

// syncAblation sweeps the net-wise synchronizations per improvement pass
// (§7.2) on the ablation circuit at 8 processors.
func (s *paperSuite) syncAblation() (paperTable, paperTable) {
	tb := paperTable{name: "sync", title: "Sync ablation",
		header: []string{"syncs/pass", "tracks", "scaled tracks", "switch flips"}}
	tm := paperTable{title: fmt.Sprintf("Sync ablation (%s, net-wise, SMP, P=8)", paperAblation),
		header: []string{"syncs/pass", "time", "speedup"}}
	base := s.base(paperAblation)
	for _, syncs := range []int{-1, 1, 4, 16} {
		r := s.run(paperKey{circuit: paperAblation, algo: parallel.NetWise, procs: 8, sync: syncs})
		label := fmt.Sprint(syncs)
		if syncs < 0 {
			label = "none"
		}
		tb.add(label, r.tracks, r.scaled(base), r.flips)
		t, sp := timed(r, base)
		tm.add(label, t, sp)
	}
	return tb, tm
}

// platformAblation runs hybrid on both platform models across processor
// counts: the DMP is slower per message and catches up with more nodes.
func (s *paperSuite) platformAblation() (paperTable, paperTable) {
	tb := paperTable{name: "platform", title: "Platform ablation",
		header: []string{"platform@procs", "tracks", "scaled tracks"}}
	tm := paperTable{title: fmt.Sprintf("Platform ablation (%s, hybrid)", paperAblation),
		header: []string{"platform@procs", "time", "speedup"}}
	base := s.base(paperAblation)
	for _, dmp := range []bool{false, true} {
		for _, p := range []int{4, 8, 16, 32} {
			r := s.run(paperKey{circuit: paperAblation, algo: parallel.Hybrid, procs: p, dmp: dmp})
			label := fmt.Sprintf("smp @%d", p)
			if dmp {
				label = fmt.Sprintf("dmp @%d", p)
			}
			tb.add(label, r.tracks, r.scaled(base))
			t, sp := timed(r, base)
			tm.add(label, t, sp)
		}
	}
	return tb, tm
}

// evaluate builds every table of the evaluation, deterministic and timed,
// routing whatever the suite has not routed yet.
func (s *paperSuite) evaluate() (tables, timed []paperTable) {
	circuits := paperCircuits()
	tables = []paperTable{s.table1(circuits)}
	both := func(tb, tm paperTable) {
		tables, timed = append(tables, tb), append(timed, tm)
	}
	both(s.tracks(2, 4, parallel.RowWise, circuits))
	both(s.tracks(3, 5, parallel.NetWise, circuits))
	both(s.tracks(4, 6, parallel.Hybrid, circuits))
	both(s.table5(circuits))
	if paperFull() {
		both(s.partitionAblation())
		both(s.syncAblation())
		both(s.platformAblation())
	}
	s.checking.Wait()
	return tables, timed
}

// TestAllPresetsSerial routes the serial baseline of every evaluated
// circuit and holds each to checkResult.
func TestAllPresetsSerial(t *testing.T) {
	for _, name := range paperCircuits() {
		t.Run(name, func(t *testing.T) { usePaper(t).base(name) })
	}
}

// TestAllPresetsParallel routes every parallel run of the evaluation,
// holds each to checkResult and to the paper's quality band: parallel
// routing costs at most a modest premium over serial, and never
// "improves" it by more than noise (a big improvement would mean lost
// wires).
func TestAllPresetsParallel(t *testing.T) {
	s := usePaper(t)
	s.evaluate()
	for k, r := range s.runs {
		if k.procs == 0 {
			continue
		}
		if scaled := float64(r.tracks) / float64(s.base(k.circuit).tracks); scaled < 0.97 || scaled > 1.25 {
			t.Errorf("%v: scaled tracks %.3f outside the credible band", k, scaled)
		}
	}
}

// TestPaperTables routes the evaluation and compares its deterministic
// tables with EXPERIMENTS.md's paper blocks, one subtest per block, or
// rewrites the blocks under UPDATE_GOLDEN=1. Under -short or -race it
// compares only the rows of primary2 and biomed.
func TestPaperTables(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	full := paperFull()
	if update && !full {
		t.Fatal("UPDATE_GOLDEN=1 rewrites the paper blocks from the full run: drop -short and -race")
	}
	tables, timed := usePaper(t).evaluate()
	raw, err := os.ReadFile(paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	if !update {
		for _, tb := range tables {
			t.Run(tb.name, func(t *testing.T) { comparePaper(t, tb, paperBlock(t, doc, tb.name), full) })
		}
		return
	}
	for _, tb := range tables {
		doc = setPaperBlock(t, doc, tb.name, tb.markdown())
	}
	doc = setPaperBlock(t, doc, "timed", timedBlock(timed))
	if err := os.WriteFile(paperDoc, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
}

// timedBlock renders the simulated-time tables under a line naming the
// commit, GOMAXPROCS and the rep count they were measured with.
func timedBlock(tables []paperTable) string {
	commit := "unknown commit"
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Measured at `%s` with %s, GOMAXPROCS=%d, %d reps per cell: median (min–max). "+
		"A speedup is the median serial time ÷ one rep's simulated time.\n",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), paperReps)
	for _, tb := range tables {
		fmt.Fprintf(&b, "\n**%s**\n\n%s", tb.title, tb.markdown())
	}
	return b.String()
}

func paperMarkers(name string) (string, string) {
	return "<!-- paper:" + name + " -->\n", "<!-- /paper:" + name + " -->"
}

// paperBlock returns the text between name's markers in doc.
func paperBlock(t *testing.T, doc, name string) string {
	t.Helper()
	open, close := paperMarkers(name)
	_, after, ok := strings.Cut(doc, open)
	block, _, ok2 := strings.Cut(after, close)
	if !ok || !ok2 {
		t.Fatalf("%s has no %q … %q block; write it with UPDATE_GOLDEN=1", paperDoc, strings.TrimSpace(open), close)
	}
	return block
}

func setPaperBlock(t *testing.T, doc, name, content string) string {
	t.Helper()
	open, _ := paperMarkers(name)
	return strings.Replace(doc, open+paperBlock(t, doc, name), open+content, 1)
}

// comparePaper holds a generated table to the committed block cell by
// cell, naming the table, row, column and both values of every
// difference. A partial run (full false) ignores committed rows it did
// not generate.
func comparePaper(t *testing.T, tb paperTable, block string, full bool) {
	t.Helper()
	var rows [][]string // the header, then the rows; "|---" lines drop out
	for _, line := range strings.Split(block, "\n") {
		if strings.HasPrefix(line, "| ") {
			rows = append(rows, strings.Split(strings.Trim(line, "| "), " | "))
		}
	}
	if len(rows) == 0 || !slices.Equal(rows[0], tb.header) {
		t.Errorf("%s: %s's columns are %q, the run's %q; refresh with UPDATE_GOLDEN=1",
			tb.title, paperDoc, rows[:min(len(rows), 1)], tb.header)
		return
	}
	if full && len(rows)-1 != len(tb.rows) {
		t.Errorf("%s: %s has %d rows, the run %d", tb.title, paperDoc, len(rows)-1, len(tb.rows))
	}
	committed := map[string][]string{}
	for _, row := range rows[1:] {
		committed[row[0]] = row
	}
	for _, row := range tb.rows {
		old := committed[row[0]]
		if len(old) != len(row) {
			t.Errorf("%s: row %q: %s has %q, the run gives %q", tb.title, row[0], paperDoc, old, row)
			continue
		}
		for i := 1; i < len(row); i++ {
			if old[i] != row[i] {
				t.Errorf("%s: row %q, column %q: %s has %s, the run gives %s",
					tb.title, row[0], tb.header[i], paperDoc, old[i], row[i])
			}
		}
	}
}

// Command benchmark is the repository's one benchmark: six workloads over
// the router, the parallel drivers, the message-passing engines and the
// twgrd daemon, measured from outside through their public functions.
//
//	go run ./benchmark                      every workload, each in its own child process
//	go run ./benchmark -trace spans.json    the same, plus a traced pass, the probe pass and the span file
//	go run ./benchmark -aa 3                the untraced suite three times, spreads against the bounds
//	go run ./benchmark --workload twgrd-hit --seed 7 --seconds 12 --trace 0
//
// The last form is what the regression gate runs (see BENCHMARK.json): one
// workload in this process, its result as one JSON object on the last line
// of standard output. README.md has the metric and workload tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
)

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string // "0" off, "1" on, anything else: on, and the span file to write
	aa       int
	quick    bool
	out      string
}

func (o options) traced() bool { return o.trace != "0" }

func (o options) spanFile() string {
	if o.trace == "0" || o.trace == "1" {
		return ""
	}
	return o.trace
}

func (o options) runConfig() runConfig {
	cfg := runConfig{workload: o.workload, seed: o.seed, seconds: o.seconds, trace: o.traced(), sc: fullScale, nproc: runtime.NumCPU()}
	if o.quick {
		cfg.sc = quickScale
	}
	return cfg
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process: "+fmt.Sprint(workloadNames))
	flag.Uint64Var(&o.seed, "seed", 7, "drives every routing seed; the circuits are the canonical generation-seed-7 instances")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of each workload's timed section")
	flag.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; a file name: traced run that also writes its spans there")
	flag.IntVar(&o.aa, "aa", 0, "run the untraced suite N times and check the spreads against the bounds")
	flag.BoolVar(&o.quick, "quick", false, "test-sized circuits and a handful of ops (what the smoke test runs)")
	flag.StringVar(&o.out, "out", "benchmark-report.json", "where the suite writes its report")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ctx := context.Background()
	var err error
	switch {
	case o.workload != "":
		err = runOne(ctx, o)
	case o.aa > 0:
		err = runAA(ctx, o)
	default:
		_, err = runSuite(ctx, o, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// header is what a report records about the machine and the run.
type header struct {
	GoVersion  string  `json:"goVersion"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	// Unproven marks numbers taken on fewer cores than the parallel
	// workloads have ranks and workers: their speedups prove nothing.
	Unproven bool `json:"unproven,omitempty"`
}

func newHeader(o options) header {
	n := runtime.NumCPU()
	return header{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: n,
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Unproven: n < parProcs,
	}
}

func (h header) print() {
	fmt.Printf("benchmark: %s GOMAXPROCS=%d nproc=%d seed=%d seconds=%g quick=%v\n",
		h.GoVersion, h.GOMAXPROCS, h.NProc, h.Seed, h.Seconds, h.Quick)
	if h.Unproven {
		fmt.Printf("benchmark: UNPROVEN — %d core(s) for %d ranks/workers; speedups on this box prove nothing\n", h.NProc, parProcs)
	}
}

// traceFile is the span file of a traced run.
type traceFile struct {
	Schema    string          `json:"schema"`
	Header    header          `json:"header"`
	Workloads []workloadTrace `json:"workloads"`
}

type workloadTrace struct {
	Workload  string     `json:"workload"`
	SelfTimes []selfTime `json:"selfTimes"`
	Spans     []span     `json:"spans"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne runs a single workload in this process: the metrics by name, the
// span table of a traced run, and the result object on the last line.
func runOne(ctx context.Context, o options) error {
	h := newHeader(o)
	h.print()
	out, info, err := runWorkload(ctx, o.runConfig())
	if err != nil {
		return err
	}
	printMetrics(o.workload, out, info)
	if o.traced() {
		wt := workloadTrace{Workload: o.workload, SelfTimes: selfTimes(info.Spans), Spans: info.Spans}
		printSelfTimes(wt)
		if f := o.spanFile(); f != "" {
			if err := writeJSON(f, traceFile{Schema: "parroute-benchmark-spans/1", Header: h, Workloads: []workloadTrace{wt}}); err != nil {
				return err
			}
		}
	}
	info.Spans = nil
	if err := printJSONLine("info ", info); err != nil {
		return err
	}
	if err := printJSONLine("", out); err != nil {
		return err
	}
	if out.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed: %v", o.workload, out.Failed, out.Attempted, info.Errors)
	}
	return nil
}

func printJSONLine(prefix string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s%s\n", prefix, data)
	return err
}

func printMetrics(workload string, out outcome, info runInfo) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", workload, n, m.Value, m.Unit)
	}
	fmt.Fprintf(tw, "%s\tops_attempted\t%d\tcount\n", workload, out.Attempted)
	fmt.Fprintf(tw, "%s\tops_failed\t%d\tcount\n", workload, out.Failed)
	fmt.Fprintf(tw, "%s\tfail_ratio\t%g\tratio\n", workload, ratio(float64(out.Failed), float64(out.Attempted)))
	fmt.Fprintf(tw, "%s\tsamples\t%d\tcount\n", workload, info.Samples)
	fmt.Fprintf(tw, "%s\traw_op_ms_p50\t%.6g\tms\n", workload, info.RawP50)
	fmt.Fprintf(tw, "%s\tbox_speed\t%.6g\tratio\n", workload, info.BoxSpeed)
	tw.Flush()
}

func printSelfTimes(wt workloadTrace) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "span\tcount\ttotal ms\tself ms\n")
	for _, r := range wt.SelfTimes {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
	tw.Flush()
}

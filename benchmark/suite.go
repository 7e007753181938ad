package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// report is what the suite writes: one entry per workload, end-to-end
// metrics from the untraced child and, after a traced pass, the per-layer
// metrics from the traced one.
type report struct {
	Schema    string           `json:"schema"`
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string                 `json:"name"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"opsAttempted"`
	Failed    int                    `json:"opsFailed"`
	Samples   int                    `json:"samples"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Layers    map[string]metricValue `json:"layers,omitempty"`
}

// child runs one workload in a re-exec'd copy of this program, so every
// workload starts from a clean heap and owns its peak RSS. It returns the
// child's result line and its info line.
func child(ctx context.Context, o options, workload, trace string, seconds float64) (outcome, runInfo, error) {
	self, err := os.Executable()
	if err != nil {
		return outcome{}, runInfo{}, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out outcome
	var info runInfo
	if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-1]), &out) != nil ||
		json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "info ")), &info) != nil {
		if runErr == nil {
			runErr = errors.New("exit status 0")
		}
		return out, info, fmt.Errorf("%s: child printed no result: %w", workload, runErr)
	}
	// A child that printed its result and then exited non-zero had failed
	// ops; the suite reports them itself and carries on.
	return out, info, nil
}

// runSuite runs every workload untraced and, when tracing is asked for,
// once more traced at a fifth of the length. It prints every metric by
// name, writes the report and the span file, and fails when any op failed.
func runSuite(ctx context.Context, o options, verbose bool) (report, error) {
	rep := report{Schema: "parroute-benchmark/1", Header: newHeader(o)}
	if verbose {
		rep.Header.print()
	}
	tf := traceFile{Schema: "parroute-benchmark-spans/1", Header: rep.Header}
	var failures []string
	for _, name := range workloadNames {
		out, info, err := child(ctx, o, name, "0", o.seconds)
		if err != nil {
			return rep, err
		}
		wr := workloadReport{
			Name: name, Correct: out.Correct, Attempted: out.Attempted, Failed: out.Failed,
			Samples: info.Samples, Errors: info.Errors, Metrics: out.Metrics,
		}
		if o.traced() {
			spans, err := os.CreateTemp(filepath.Dir(o.out), ".benchmark-spans-*.json")
			if err != nil {
				return rep, err
			}
			spans.Close()
			tout, tinfo, err := child(ctx, o, name, spans.Name(), o.seconds/5)
			if err == nil {
				err = readTrace(spans.Name(), &tf)
			}
			os.Remove(spans.Name())
			if err != nil {
				return rep, err
			}
			wr.Layers = tout.Metrics
			wr.Attempted, wr.Failed = wr.Attempted+tout.Attempted, wr.Failed+tout.Failed
			wr.Correct = wr.Correct && tout.Correct
			wr.Errors = append(wr.Errors, tinfo.Errors...)
		}
		if wr.Failed > 0 {
			failures = append(failures, fmt.Sprintf("%s: %d of %d ops failed: %v", name, wr.Failed, wr.Attempted, wr.Errors))
		}
		rep.Workloads = append(rep.Workloads, wr)
		if verbose {
			printMetrics(name, outcome{Attempted: wr.Attempted, Failed: wr.Failed, Metrics: wr.Metrics}, runInfo{Samples: wr.Samples})
			if wr.Layers != nil {
				printLayers(name, wr.Layers)
				printSelfTimes(tf.Workloads[len(tf.Workloads)-1])
			}
		}
	}
	if verbose {
		if err := writeJSON(o.out, rep); err != nil {
			return rep, err
		}
		fmt.Printf("benchmark: report written to %s\n", o.out)
		if f := o.spanFile(); f != "" {
			if err := writeJSON(f, tf); err != nil {
				return rep, err
			}
			fmt.Printf("benchmark: spans written to %s\n", f)
		}
	}
	if len(failures) > 0 {
		return rep, errors.New(strings.Join(failures, "; "))
	}
	return rep, nil
}

func readTrace(path string, into *traceFile) error {
	data, err := os.ReadFile(filepath.Clean(path))
	if err != nil {
		return err
	}
	var one traceFile
	if err := json.Unmarshal(data, &one); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	into.Workloads = append(into.Workloads, one.Workloads...)
	return nil
}

func printLayers(workload string, layers map[string]metricValue) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, d := range perLayer {
		m := layers[d.Name]
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", workload, d.Name, m.Value, m.Unit)
	}
	tw.Flush()
}

// setupFloorS is the absolute slack setup_s gets beside its bound: a
// 0.2 s set-up moves by more than a quarter on scheduler noise alone.
const setupFloorS = 0.3

// runAA runs the untraced suite o.aa times on the same code and prints,
// per metric and workload, min / median / max and the spread (max − min
// over the median) against the metric's bound. Two runs of one program
// that disagree by more than the bound mean the benchmark, not the
// program, needs fixing; tracks must repeat exactly.
func runAA(ctx context.Context, o options) error {
	o.trace = "0"
	runs := make([]report, 0, o.aa)
	for i := 0; i < o.aa; i++ {
		fmt.Printf("benchmark: A/A run %d of %d\n", i+1, o.aa)
		rep, err := runSuite(ctx, o, false)
		if err != nil {
			return err
		}
		runs = append(runs, rep)
	}
	runs[0].Header.print()
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tmin\tmedian\tmax\tspread\tbound\t\n")
	var over []string
	for wi, name := range workloadNames {
		for _, d := range endToEnd {
			var xs []float64
			for _, r := range runs {
				xs = append(xs, r.Workloads[wi].Metrics[d.Name].Value)
			}
			lo, med, hi := percentile(xs, 0), median(xs), percentile(xs, 1)
			spread, bound := ratio(hi-lo, med), d.Bound
			verdict := ""
			switch {
			case d.Name == "tracks" && hi != lo:
				verdict = "NOT EXACT"
			case d.Name == "setup_s" && hi-lo <= setupFloorS:
			case d.Name != "tracks" && spread > bound:
				verdict = "OVER"
			}
			if verdict != "" {
				over = append(over, name+"/"+d.Name)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.2f%%\t%.0f%%\t%s\n", name, d.Name, d.Unit, lo, med, hi, 100*spread, 100*bound, verdict)
		}
	}
	tw.Flush()
	if len(over) > 0 {
		return fmt.Errorf("A/A: %d runs of the same code disagree beyond the bound on %v", o.aa, over)
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"syscall"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64  // drives circuit generation and routing seeds
	seconds  float64 // length of the timed section
	trace    bool    // record spans and report the per-layer metrics
	sc       scale
	nproc    int // worker goroutines, route workers and closed-loop clients
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line of a run: exactly the keys the benchmark
// contract names.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is what a run reports beside its outcome: sample counts for the
// report header, the failure messages, and the spans of a traced run.
type runInfo struct {
	Workload string `json:"workload"`
	Samples  int    `json:"samples"` // measured ops behind op_ms_p50
	// RawP50 is op_ms_p50 before scaling to the box's nominal speed, and
	// BoxSpeed the run's median scale factor (see calibrate.go).
	RawP50   float64  `json:"rawOpMsP50"`
	BoxSpeed float64  `json:"boxSpeed"`
	Errors   []string `json:"errors,omitempty"`
	Spans    []span   `json:"spans,omitempty"`
}

// tally counts timed ops and keeps the first few failure messages.
type tally struct {
	attempted int
	failed    int
	errors    []string
}

// check counts one op: failed when err is non-nil.
func (t *tally) check(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errors) < 5 {
		t.errors = append(t.errors, err.Error())
	}
}

// values collects metric values by name; finish turns them into the
// outcome's metric map, in the units the spec declares. A workload also
// leaves "raw_op_ms_p50" here for the info line; finish drops what the spec
// does not name.
type values map[string]float64

func (v values) finish(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

// runWorkload runs one workload in this process and returns its outcome.
func runWorkload(ctx context.Context, cfg runConfig) (outcome, runInfo, error) {
	var (
		vals values
		tl   tally
		n    int
		tr   *tracer
		err  error
		sp   = newSpeedometer()
	)
	if cfg.trace {
		tr = newTracer()
	}
	switch cfg.workload {
	case wlSerialAvq, wlWorkers100k, wlHybridInproc, wlNetwiseTCP:
		vals, n, err = runRouting(ctx, cfg, sp, tr, &tl)
	case wlTwgrdMiss, wlTwgrdHit:
		vals, n, err = runTwgrd(ctx, cfg, sp, tr, &tl)
	default:
		return outcome{}, runInfo{}, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if err != nil {
		return outcome{}, runInfo{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	info := runInfo{Workload: cfg.workload, Samples: n, Errors: tl.errors, RawP50: vals["raw_op_ms_p50"], BoxSpeed: sp.medianFactor()}
	defs := endToEnd
	if cfg.trace {
		if err := probe(ctx, cfg, vals); err != nil {
			return outcome{}, runInfo{}, fmt.Errorf("probe pass: %w", err)
		}
		defs = perLayer
		info.Spans = tr.spans
	} else {
		vals["peak_rss_mb"] = peakRSSMB()
	}
	out := outcome{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: vals.finish(defs)}
	return out, info, nil
}

// peakRSSMB returns this process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

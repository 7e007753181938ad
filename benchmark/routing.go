package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/parallel"
	"parroute/internal/pipeline"
	"parroute/internal/route"
	"parroute/internal/runcfg"
)

// parProcs is the rank count of the parallel workloads: the box the
// numbers are committed from has two cores.
const parProcs = 2

// quality is the part of a result every repeat of an op must reproduce.
type quality struct {
	tracks     int
	area       int64
	wirelength int64
}

func qualityOf(r *metrics.Result) quality {
	return quality{tracks: r.TotalTracks, area: r.Area, wirelength: r.Wirelength}
}

// opTrace is the tracing context of one traced op: its root span.
type opTrace struct {
	tr      *tracer
	op      int
	root    int
	cloneMS float64 // what the op's circuit clone took, when it made one itself
}

func (t *opTrace) observer(layer string) pipeline.Observer {
	return &stageObserver{tr: t.tr, parent: t.root, op: t.op, layer: layer}
}

// routing is the state of one routing workload after set-up.
type routing struct {
	cfg       runConfig
	c         *circuit.Circuit
	opt       route.Options
	serialRef quality // the verified workers=1 route of c
	opRef     quality // what the measured op produced during set-up
}

// serial routes w.c with the serial router. Untraced it is route.Route;
// traced it is the same two steps with a span around the clone and the
// stage observer attached.
func (w *routing) serial(ctx context.Context, workers int, t *opTrace) (*metrics.Result, error) {
	opt := w.opt
	opt.Workers = workers
	if t == nil {
		return route.Route(ctx, w.c, opt)
	}
	start := now()
	cl := w.c.Clone()
	end := now()
	t.tr.add(t.root, t.op, "circuit.clone", start, end)
	t.cloneMS = ms(end.Sub(start))
	return route.NewRouter(cl, opt).Run(ctx, t.observer("route"))
}

func (w *routing) par(ctx context.Context, algo parallel.Algorithm, mode mp.Mode, t *opTrace) (*metrics.Result, error) {
	opt := parallel.Options{
		Algo: algo, Procs: parProcs, Mode: mode, Route: w.opt,
		Limits: mp.Limits{RecvTimeout: time.Minute, SendTimeout: time.Minute},
	}
	if t != nil {
		opt.Observers = []pipeline.Observer{t.observer("parallel")}
	}
	return parallel.Run(ctx, w.c, opt)
}

// base is the first op of a pair — serial, workers=1, same circuit — or
// nil on serial-avq, which has nothing to pair with.
func (w *routing) base() func(context.Context, *opTrace) (*metrics.Result, error) {
	if w.cfg.workload == wlSerialAvq {
		return nil
	}
	return func(ctx context.Context, t *opTrace) (*metrics.Result, error) { return w.serial(ctx, 1, t) }
}

// measured is the op the workload's end-to-end metrics describe.
func (w *routing) measured(ctx context.Context, t *opTrace) (*metrics.Result, error) {
	switch w.cfg.workload {
	case wlSerialAvq:
		return w.serial(ctx, 1, t)
	case wlWorkers100k:
		return w.serial(ctx, w.cfg.nproc, t)
	case wlHybridInproc:
		return w.par(ctx, parallel.Hybrid, mp.Inproc, t)
	default:
		return w.par(ctx, parallel.NetWise, mp.TCP, t)
	}
}

// setupRouting generates the circuit, routes and verifies the serial
// reference, and runs the measured op once: its result is the reference
// every timed op must reproduce, and the run doubles as the warm-up.
func setupRouting(ctx context.Context, cfg runConfig) (*routing, error) {
	preset := cfg.sc.big
	if cfg.workload == wlWorkers100k {
		preset = cfg.sc.huge
	}
	c, err := runcfg.LoadPreset(preset, genSeed)
	if err != nil {
		return nil, err
	}
	w := &routing{cfg: cfg, c: c, opt: route.Options{Seed: cfg.seed}}
	// Each step starts from a collected heap, like the timed ops do: the
	// resident-set peak then belongs to a step, not to how the collector's
	// pacing happened to straddle two of them.
	runtime.GC()
	rt := route.NewRouter(c.Clone(), w.opt)
	res, err := rt.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("reference route: %w", err)
	}
	if err := rt.Verify(); err != nil {
		return nil, fmt.Errorf("reference route fails Verify: %w", err)
	}
	w.serialRef = qualityOf(res)
	rt, res = nil, nil
	runtime.GC()
	res, err = w.measured(ctx, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	w.opRef = qualityOf(res)
	if cfg.workload == wlSerialAvq || cfg.workload == wlWorkers100k {
		// The serial router is byte-identical at every worker count.
		if w.opRef != w.serialRef {
			return nil, fmt.Errorf("warm-up op routed %+v, the verified reference %+v", w.opRef, w.serialRef)
		}
	}
	return w, nil
}

// routeSample is what one timed op of a routing workload leaves behind.
type routeSample struct {
	at     time.Time // when the op started
	ms     float64
	q      quality
	phases []metrics.Phase // per-stage walls and counters; the wires are not kept
	traced bool
	clone  float64 // ms of the op's circuit clone (traced serial ops only)
	allocs float64 // heap allocations of the op (traced workers=1 ops only)
	allocB float64
}

// timeOp runs one op on the clock, after a collection off it so that no
// op pays for its predecessor's garbage. Traced ops get a root span and,
// when countAllocs is set, exact allocation counts from MemStats.
func timeOp(ctx context.Context, sp *speedometer, tr *tracer, op int, name string, countAllocs bool,
	fn func(context.Context, *opTrace) (*metrics.Result, error)) (routeSample, error) {
	runtime.GC()
	sp.sample()
	var t *opTrace
	var before, after runtime.MemStats
	if tr != nil {
		if countAllocs {
			runtime.ReadMemStats(&before)
		}
		t = &opTrace{tr: tr, op: op}
		t.root = tr.begin(0, op, name)
	}
	start := now()
	res, err := fn(ctx, t)
	s := routeSample{at: start, ms: msSince(start), traced: tr != nil}
	if err == nil {
		s.q, s.phases = qualityOf(res), res.Phases
	}
	if tr != nil {
		tr.end(t.root)
		s.clone = t.cloneMS
		if countAllocs {
			runtime.ReadMemStats(&after)
			s.allocs = float64(after.Mallocs - before.Mallocs)
			s.allocB = float64(after.TotalAlloc - before.TotalAlloc)
		}
	}
	return s, err
}

// runRouting runs one of the four routing workloads: repeated set-up, then
// the timed loop of (base, measured) pairs, then the metrics.
func runRouting(ctx context.Context, cfg runConfig, sp *speedometer, tr *tracer, tl *tally) (values, int, error) {
	var w *routing
	var setups []float64
	for i := 0; i < cfg.sc.setups; i++ {
		w = nil
		runtime.GC()
		sp.sample()
		start := now()
		var err error
		if w, err = setupRouting(ctx, cfg); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, msSince(start)/1000*sp.factor(start))
	}

	// baseS[i] and opS[i] are the two ops of pair i; a pair with a failed
	// op is counted in the tally and dropped from the samples.
	baseFn := w.base()
	var baseS, opS []routeSample
	start := now()
	for i := 0; msSince(start) < cfg.seconds*1000 || i < cfg.sc.minOps; i++ {
		var opTr *tracer
		if tr != nil && i%2 == 1 {
			opTr = tr // traced and plain ops alternate, so their medians pair
		}
		var b routeSample
		var berr error
		if baseFn != nil {
			b, berr = timeOp(ctx, sp, opTr, 2*i, "route.Route", true, baseFn)
			if berr == nil && b.q != w.serialRef {
				berr = fmt.Errorf("base op %d routed %+v, reference %+v", i, b.q, w.serialRef)
			}
			tl.check(berr)
		}
		s, err := timeOp(ctx, sp, opTr, 2*i+1, opName(cfg.workload), baseFn == nil, w.measured)
		if err == nil && s.q != w.opRef {
			err = fmt.Errorf("op %d routed %+v, reference %+v", i, s.q, w.opRef)
		}
		tl.check(err)
		if err == nil && berr == nil {
			baseS, opS = append(baseS, b), append(opS, s)
		}
	}
	if len(opS) == 0 {
		return nil, 0, fmt.Errorf("no op succeeded: %v", tl.errors)
	}

	opMS := walls(opS)
	for i, s := range opS {
		opMS[i] *= sp.factor(s.at) // the wall at the box's nominal speed; see calibrate.go
	}
	v := values{
		"raw_op_ms_p50": median(walls(opS)),
		"setup_s":       median(setups),
		"op_ms_p50":     median(opMS),
		"ops_per_s":     ratio(float64(len(opMS)), sum(opMS)/1000),
		"tracks":        float64(w.opRef.tracks),
	}
	if baseFn != nil {
		// The median of the pairs' own ratios: the two ops of a pair run
		// within a second of each other, so the box's drift cancels.
		var ratios []float64
		for i := range opS {
			ratios = append(ratios, baseS[i].ms/opS[i].ms)
		}
		v["speedup"] = median(ratios)
	} else {
		even, odd := parity(walls(opS))
		v["speedup"] = ratio(median(odd), median(even)) // the A/A control
	}
	if tr != nil {
		routingLayers(cfg, w, traced(baseS, true), traced(opS, true), v)
		v["trace.overhead_pct"] = 100 * (ratio(median(walls(traced(opS, true))), median(walls(traced(opS, false)))) - 1)
	}
	return v, len(opS), nil
}

func opName(workload string) string {
	if workload == wlHybridInproc || workload == wlNetwiseTCP {
		return "parallel.Run"
	}
	return "route.Route"
}

func walls(ss []routeSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// traced returns the samples whose traced flag is on.
func traced(ss []routeSample, on bool) []routeSample {
	var out []routeSample
	for _, s := range ss {
		if s.traced == on {
			out = append(out, s)
		}
	}
	return out
}

// stages returns the summed wall of the named stages in the op, in ms; a
// stage the op did not run counts 0.
func (s routeSample) stages(names ...string) float64 {
	t := 0.0
	for _, ph := range s.phases {
		if slices.Contains(names, ph.Name) {
			t += ms(ph.Elapsed)
		}
	}
	return t
}

// medianOf returns the median of f over the samples.
func medianOf(ss []routeSample, f func(routeSample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// routeCounterStages maps each route.* counter metric to the stage that
// reports it and the name it has there.
var routeCounterStages = map[string][2]string{
	"segments": {"steiner", "segments"}, "coarse_flips": {"coarse", "coarse-flips"},
	"inserted_fts": {"ft-insert", "inserted-fts"}, "wires": {"connect", "wires"},
	"switch_flips": {"switch-opt", "switch-flips"},
}

// routingLayers fills the per-layer metrics that the traced pairs of a
// routing workload give: stage walls and counters from Result.Phases and
// allocation counts from the workers=1 ops. Walls are as measured, not
// scaled to the box's nominal speed.
func routingLayers(cfg runConfig, w *routing, baseS, opS []routeSample, v values) {
	// The serial-router stages come from the measured op where it is a
	// serial route and from the base op on the parallel workloads; exact
	// allocation counts come from whichever of the two runs workers=1.
	parallelOp := cfg.workload == wlHybridInproc || cfg.workload == wlNetwiseTCP
	routeS, allocS := opS, opS
	if parallelOp {
		routeS, allocS = baseS, baseS
	} else if cfg.workload == wlWorkers100k {
		allocS = baseS
	}
	for _, st := range routeStages {
		v["route."+st+"_ms"] = medianOf(routeS, func(s routeSample) float64 { return s.stages(st) })
	}
	v["route.unstaged_ms"] = medianOf(routeS, func(s routeSample) float64 { return s.ms - s.clone - s.stages(routeStages...) })
	v["route.serial_fraction"] = medianOf(routeS, func(s routeSample) float64 {
		return s.stages("coarse", "ft-insert", "switch-opt") / s.ms
	})
	v["route.allocs_per_op"] = medianOf(allocS, func(s routeSample) float64 { return s.allocs })
	v["route.alloc_kb_per_op"] = medianOf(allocS, func(s routeSample) float64 { return s.allocB / 1024 })
	if len(routeS) > 0 {
		for metric, at := range routeCounterStages {
			v["route."+metric] = float64(phaseCounter(routeS[len(routeS)-1].phases, at[0], at[1]))
		}
	}
	if cfg.workload == wlWorkers100k {
		for _, st := range fanoutStages {
			stage := func(s routeSample) float64 { return s.stages(st) }
			v["workpool.stage_speedup."+st] = ratio(medianOf(baseS, stage), medianOf(opS, stage))
		}
	}
	if parallelOp {
		for _, st := range parallelStages {
			v["parallel."+st+"_ms"] = medianOf(opS, func(s routeSample) float64 { return s.stages(st) })
		}
		v["parallel.unstaged_ms"] = medianOf(opS, func(s routeSample) float64 { return s.ms - s.stages(parallelStages...) })
		v["parallel.scaled_tracks"] = ratio(float64(w.opRef.tracks), float64(w.serialRef.tracks))
	}
}

func phaseCounter(phases []metrics.Phase, stage, counter string) int64 {
	for _, ph := range phases {
		if ph.Name != stage {
			continue
		}
		for _, c := range ph.Counters {
			if c.Name == counter {
				return c.Value
			}
		}
	}
	return 0
}

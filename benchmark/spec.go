package main

// The benchmark's vocabulary: the workloads and metrics the driver emits.
// BENCHMARK.json at the repository root declares the same names for the
// regression gate; the smoke test keeps the two in step.

// Workload names (the contract of ISSUE 11).
const (
	wlSerialAvq    = "serial-avq"
	wlWorkers100k  = "workers-100k"
	wlHybridInproc = "hybrid-inproc"
	wlNetwiseTCP   = "netwise-tcp"
	wlTwgrdMiss    = "twgrd-miss"
	wlTwgrdHit     = "twgrd-hit"
)

// workloadNames lists the workloads in report order.
var workloadNames = []string{wlSerialAvq, wlWorkers100k, wlHybridInproc, wlNetwiseTCP, wlTwgrdMiss, wlTwgrdHit}

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // share of the parent's median it may worsen by; end-to-end only
}

// endToEnd are the metrics of an untraced run, one value per workload.
//
// Every workload reports every metric. Where a metric has no natural
// reading, the stand-in is stated in README.md: `speedup` on a workload
// with no baseline configuration is the A/A control (odd ops ÷ even ops
// of the same kind, which must read 1.00), and `tracks` on the twgrd
// workloads is the track count inside the reference response.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"speedup", "ratio", "higher", 0.15},
	{"tracks", "count", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// Stage names of the serial router and of the parallel drivers, in
// pipeline order; they index the route.* and parallel.* stage metrics.
var (
	routeStages    = []string{"steiner", "coarse", "ft-insert", "ft-assign", "connect", "switch-opt"}
	fanoutStages   = []string{"steiner", "ft-assign", "connect"} // the stages that fan out on workpool
	parallelStages = []string{"crossings", "subcircuit", "steiner", "coarse", "ft-insert", "ft-assign", "connect", "stitch", "switch-opt"}
	genPresets     = []string{"avq-large", "synth-100k", "primary2"}
	clonePresets   = []string{"avq-large", "synth-100k"}
	engines        = []string{"inproc", "tcp"}
	algoNames      = []string{"rowwise", "netwise", "hybrid"}
	routeCounters  = []string{"segments", "coarse_flips", "inserted_fts", "wires", "switch_flips"}
)

// perLayer are the metrics of a traced run. A metric that a workload does
// not exercise reads 0 there (no mp or service work happens under
// serial-avq, by construction); the probe-pass metrics are measured in
// every traced run and do not depend on the workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, p := range genPresets {
		add("gen.generate_ms."+p, "ms", "lower")
	}
	for _, p := range clonePresets {
		add("circuit.clone_ms."+p, "ms", "lower")
	}
	for _, s := range routeStages {
		add("route."+s+"_ms", "ms", "lower")
	}
	add("route.unstaged_ms", "ms", "lower")
	add("route.serial_fraction", "ratio", "lower")
	add("route.allocs_per_op", "count", "lower")
	add("route.alloc_kb_per_op", "KB", "lower")
	for _, c := range routeCounters {
		add("route."+c, "count", "lower")
	}
	for _, s := range fanoutStages {
		add("workpool.stage_speedup."+s, "ratio", "higher")
	}
	add("workpool.do_overhead_us", "us", "lower")
	add("partition.assign_ms", "ms", "lower")
	add("partition.pin_imbalance", "ratio", "lower")
	for _, s := range parallelStages {
		add("parallel."+s+"_ms", "ms", "lower")
	}
	add("parallel.unstaged_ms", "ms", "lower")
	add("parallel.scaled_tracks", "ratio", "lower")
	for _, a := range algoNames {
		add("parallel.scaled_tracks_p8."+a, "ratio", "lower")
	}
	for _, e := range engines {
		add("mp.engine_start_ms."+e, "ms", "lower")
	}
	for _, e := range engines {
		add("mp.pingpong_us."+e, "us", "lower")
	}
	for _, e := range engines {
		add("mp.allreduce_ms."+e, "ms", "lower")
	}
	add("mp.encode_ns_per_byte", "ns/B", "lower")
	add("mp.decode_ns_per_byte", "ns/B", "lower")
	add("mp.wire_bytes", "B", "lower")
	add("service.ttfb_ms_p50", "ms", "lower")
	add("service.lat_ms_p90", "ms", "lower")
	add("service.lat_ms_p99", "ms", "lower")
	add("service.submit_wait_ms_p50", "ms", "lower")
	add("service.envelope_encode_ms", "ms", "lower")
	add("service.envelope_decode_ms", "ms", "lower")
	add("service.canonical_ms", "ms", "lower")
	add("service.response_kb", "KB", "lower")
	add("service.cache_hit_ratio", "ratio", "higher")
	add("service.coalesced", "count", "lower")
	add("service.rejected", "count", "lower")
	add("service.queue_depth_max", "count", "lower")
	add("service.client_verify_ms", "ms", "lower")
	add("trace.overhead_pct", "%", "lower")
	return out
}

// genSeed generates every circuit: the repository's canonical instances,
// the ones EXPERIMENTS.md, the goldens and the BENCH files route (avq.large
// at 3056 tracks). A run's --seed drives the routing seeds instead — the
// randomized visit orders of the router and the job seeds of the twgrd
// clients. Another generation seed is another circuit: tracks, response
// size and op time then move by ±10 % with the input, not with the program,
// and the gate's ten-seed spread would measure the generator.
const genSeed = 7

// scale names the circuits a run routes. The metric names always carry
// the full-scale preset names; -quick swaps in the test-sized circuits so
// the smoke test can emit every metric in seconds.
type scale struct {
	big     string // the paper's largest circuit (serial-avq and the parallel workloads)
	huge    string // the workpool scale point
	svc     string // what twgrd jobs route
	hitKeys int    // distinct cached keys the twgrd-hit workload cycles over
	minOps  int    // timed ops a run performs even when --seconds is already spent
	setups  int    // set-ups per run; setup_s is their median
	probeN  int    // repetitions of each cheap probe
}

var (
	fullScale  = scale{big: "avq.large", huge: "synth.100k", svc: "primary2", hitKeys: 8, minOps: 8, setups: 3, probeN: 10}
	quickScale = scale{big: "small", huge: "small", svc: "tiny", hitKeys: 4, minOps: 4, setups: 1, probeN: 2}
)

// Package runcfg is the single source of truth for the knobs a routing
// run exposes to operators: which circuit, which algorithm, how many
// workers, which engine and cost model, the routing seed, the net
// partition, the run timeout, and the chaos plan. Both binaries that
// launch runs — the one-shot CLI (cmd/twgr) and the daemon (cmd/twgrd) —
// register their flags through AddFlags and resolve them through
// Run.Options, so a knob added or renamed in one place exists identically
// in the other; the parity test in this package pins the flag table.
package runcfg

import (
	"flag"
	"fmt"
	"os"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/mp"
	"parroute/internal/parallel"
	"parroute/internal/partition"
	"parroute/internal/route"
)

// AlgoSerial is the algorithm name of the serial baseline; every other
// accepted name is one of parallel.Algorithms.
const AlgoSerial = "serial"

// Run is one routing run's configuration, independent of how the circuit
// arrives (CLI flags pick a preset or a file; the daemon receives a job
// spec). The zero value is not usable; start from Default.
type Run struct {
	Algo     string        // serial | rowwise | netwise | hybrid
	Procs    int           // worker count for the parallel algorithms
	Workers  int           // per-rank worker goroutines of the per-net routing phases
	Engine   string        // virtual | inproc | tcp
	Platform string        // virtual-engine cost model: smp | dmp
	Seed     uint64        // routing seed
	NetPart  string        // net partition: center | locus | density | pinweight
	Timeout  time.Duration // abort the run after this long (0 = no limit)

	ChaosPlan string // fault-injection plan, e.g. delay=0.1,crash=1@25
	ChaosSeed uint64 // seed of the deterministic fault schedule
}

// Default returns the configuration both binaries start from — the flag
// defaults of cmd/twgr, byte for byte.
func Default() Run {
	return Run{
		Algo:      AlgoSerial,
		Procs:     1,
		Workers:   1,
		Engine:    "virtual",
		Platform:  "smp",
		Seed:      1,
		NetPart:   "pinweight",
		Timeout:   0,
		ChaosPlan: "",
		ChaosSeed: 1,
	}
}

// AddFlags registers the run flags on fs, writing into r. Both cmd/twgr
// and cmd/twgrd call this with the same field wiring, which is what keeps
// their vocabularies identical; TestFlagTable pins names, defaults and
// usage strings.
func AddFlags(fs *flag.FlagSet, r *Run) {
	fs.StringVar(&r.Algo, "algo", r.Algo, "serial | rowwise | netwise | hybrid")
	fs.IntVar(&r.Procs, "p", r.Procs, "worker count for the parallel algorithms")
	fs.IntVar(&r.Workers, "workers", r.Workers, "per-rank worker goroutines of the per-net routing phases (output is identical at every setting)")
	fs.StringVar(&r.Engine, "engine", r.Engine, "virtual | inproc | tcp")
	fs.StringVar(&r.Platform, "platform", r.Platform, "cost model for the virtual engine: smp | dmp")
	fs.Uint64Var(&r.Seed, "seed", r.Seed, "routing seed")
	fs.StringVar(&r.NetPart, "netpart", r.NetPart, "net partition: center | locus | density | pinweight")
	fs.DurationVar(&r.Timeout, "timeout", r.Timeout, "abort the run after this long, e.g. 30s (0 = no limit)")
	fs.StringVar(&r.ChaosPlan, "chaos-plan", r.ChaosPlan, "fault-injection plan for the parallel algorithms: delay=P,delayby=D,crash=RANK@N, e.g. delay=0.1,crash=1@25 (see mp.ParsePlan)")
	fs.Uint64Var(&r.ChaosSeed, "chaos-seed", r.ChaosSeed, "seed of the deterministic fault schedule")
}

// Serial reports whether the run selects the serial baseline rather than
// one of the parallel algorithms.
func (r *Run) Serial() bool { return r.Algo == AlgoSerial }

// Algorithm resolves the algorithm name. Serial runs have no
// parallel.Algorithm; check Serial first.
func (r *Run) Algorithm() (parallel.Algorithm, error) {
	for _, a := range parallel.Algorithms() {
		if a.String() == r.Algo {
			return a, nil
		}
	}
	return 0, fmt.Errorf("runcfg: unknown algorithm %q", r.Algo)
}

// Validate checks every field without building anything, so both the CLI
// (at flag time) and the daemon (at admission time) reject bad
// configurations with the same messages.
func (r *Run) Validate() error {
	_, err := r.Options()
	return err
}

// Options resolves the configuration into the parallel.Options that
// parallel.Run / parallel.RunBaseline accept. Serial runs resolve too
// (Options.Algo is left zero and unused by RunBaseline); a chaos plan on
// a serial run is rejected, because serial routing has no transport to
// inject faults into.
func (r *Run) Options() (parallel.Options, error) {
	opts := parallel.Options{
		Procs: r.Procs,
		Route: route.Options{Seed: r.Seed, Workers: r.Workers},
	}
	if !r.Serial() {
		algo, err := r.Algorithm()
		if err != nil {
			return parallel.Options{}, err
		}
		opts.Algo = algo
	}
	switch r.Engine {
	case "virtual":
		opts.Mode = mp.Virtual
	case "inproc":
		opts.Mode = mp.Inproc
	case "tcp":
		opts.Mode = mp.TCP
	default:
		return parallel.Options{}, fmt.Errorf("runcfg: unknown engine %q", r.Engine)
	}
	switch r.Platform {
	case "smp":
		opts.Model = mp.SMP()
	case "dmp":
		opts.Model = mp.DMP()
	default:
		return parallel.Options{}, fmt.Errorf("runcfg: unknown platform %q", r.Platform)
	}
	found := false
	for _, m := range partition.Methods() {
		if m.String() == r.NetPart {
			opts.Net = partition.Config{Method: m}
			found = true
		}
	}
	if !found {
		return parallel.Options{}, fmt.Errorf("runcfg: unknown net partition %q", r.NetPart)
	}
	if r.ChaosPlan != "" {
		if r.Serial() {
			return parallel.Options{}, fmt.Errorf("runcfg: a chaos plan applies to the parallel algorithms (serial has no transport)")
		}
		plan, err := mp.ParsePlan(r.ChaosPlan)
		if err != nil {
			return parallel.Options{}, fmt.Errorf("runcfg: chaos plan: %w", err)
		}
		plan.Seed = r.ChaosSeed
		opts.Chaos = &plan
	}
	if r.Procs <= 0 {
		return parallel.Options{}, fmt.Errorf("runcfg: procs must be positive, got %d", r.Procs)
	}
	if r.Workers < 0 {
		return parallel.Options{}, fmt.Errorf("runcfg: workers must be non-negative, got %d (0 means the default of 1)", r.Workers)
	}
	return opts, nil
}

// Dist is the multi-process placement of a run: the rendezvous address a
// TCP mesh forms on and which rank this process plays (see mp.NetConfig).
// The zero value — no Addr — is the ordinary single-process run. These
// flags are registered only by cmd/twgr through AddDistFlags: the daemon
// owns -addr for its HTTP listener and serves whole jobs, not ranks.
type Dist struct {
	Addr  string // rendezvous address; "" = single-process run
	Rank  int    // this process's rank in [0, Ranks)
	Ranks int    // total number of cooperating processes
}

// AddDistFlags registers the multi-process placement flags on fs.
func AddDistFlags(fs *flag.FlagSet, d *Dist) {
	fs.StringVar(&d.Addr, "addr", d.Addr, "rendezvous address of a multi-process TCP mesh, e.g. 127.0.0.1:9300 (rank 0 binds it, the other ranks dial it)")
	fs.IntVar(&d.Rank, "rank", d.Rank, "this process's rank in the multi-process mesh")
	fs.IntVar(&d.Ranks, "ranks", d.Ranks, "total number of processes in the multi-process mesh")
}

// Apply folds the placement into already-resolved options. With no Addr
// it only rejects stray -rank/-ranks; with one it requires the TCP
// engine and a parallel algorithm, reconciles -p with -ranks (the
// default -p 1 inherits -ranks, since each process runs one worker), and
// sets parallel.Options.Dist.
func (d *Dist) Apply(r *Run, opts *parallel.Options) error {
	if d.Addr == "" {
		if d.Rank != 0 || d.Ranks != 0 {
			return fmt.Errorf("runcfg: -rank/-ranks need -addr")
		}
		return nil
	}
	if r.Serial() {
		return fmt.Errorf("runcfg: a multi-process mesh routes with a parallel algorithm; -algo serial runs alone")
	}
	if r.Engine != "tcp" {
		return fmt.Errorf("runcfg: -addr needs -engine tcp, got %q", r.Engine)
	}
	if d.Ranks < 1 {
		return fmt.Errorf("runcfg: -ranks must be at least 1, got %d", d.Ranks)
	}
	if d.Rank < 0 || d.Rank >= d.Ranks {
		return fmt.Errorf("runcfg: -rank %d out of [0, %d)", d.Rank, d.Ranks)
	}
	switch opts.Procs {
	case d.Ranks:
	case 1:
		opts.Procs = d.Ranks
	default:
		return fmt.Errorf("runcfg: -p %d conflicts with -ranks %d (each process runs one worker)", opts.Procs, d.Ranks)
	}
	opts.Dist = &mp.NetConfig{Rank: d.Rank, Ranks: d.Ranks, Addr: d.Addr}
	return nil
}

// Circuit selects the circuit of a run: a named preset (generated with
// GenSeed) or a gensc JSON file. Exactly one of Preset and In must be
// set.
type Circuit struct {
	Preset  string // named synthetic benchmark circuit
	In      string // path of a gensc JSON circuit file
	GenSeed uint64 // preset generation seed
}

// DefaultCircuit returns the circuit-selection defaults of cmd/twgr.
func DefaultCircuit() Circuit {
	return Circuit{GenSeed: 7}
}

// AddCircuitFlags registers the circuit-selection flags on fs.
func AddCircuitFlags(fs *flag.FlagSet, c *Circuit) {
	fs.StringVar(&c.Preset, "preset", c.Preset, "route a named synthetic benchmark circuit")
	fs.StringVar(&c.In, "in", c.In, "route a circuit from a gensc JSON file")
	fs.Uint64Var(&c.GenSeed, "gen-seed", c.GenSeed, "preset generation seed")
}

// Load resolves the selection into a generated or parsed circuit. Preset
// names accept the paper's Table 1 benchmarks plus the test-sized "small"
// and "tiny" circuits (the daemon's load tests route those).
func (c *Circuit) Load() (*circuit.Circuit, error) {
	switch {
	case c.Preset != "" && c.In != "":
		return nil, fmt.Errorf("runcfg: use -preset or -in, not both")
	case c.Preset != "":
		return LoadPreset(c.Preset, c.GenSeed)
	case c.In != "":
		f, err := os.Open(c.In)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return circuit.ReadJSON(f)
	}
	return nil, fmt.Errorf("runcfg: need -preset or -in")
}

// LoadPreset generates a named preset circuit. Beyond gen's benchmark
// table it accepts "small" and "tiny", the test-scale circuits, so
// service load tests and soak jobs can route something cheap.
func LoadPreset(name string, genSeed uint64) (*circuit.Circuit, error) {
	switch name {
	case "small":
		return gen.Small(genSeed), nil
	case "tiny":
		return gen.Tiny(genSeed), nil
	}
	return gen.Benchmark(name, genSeed)
}

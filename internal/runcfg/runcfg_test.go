package runcfg

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"parroute/internal/mp"
	"parroute/internal/parallel"
	"parroute/internal/partition"
)

// flagRow is one registered flag as the parity tests compare it: name,
// default value, usage string.
type flagRow struct{ name, def, usage string }

func tableOf(fs *flag.FlagSet) []flagRow {
	var rows []flagRow
	fs.VisitAll(func(f *flag.Flag) {
		rows = append(rows, flagRow{f.Name, f.DefValue, f.Usage})
	})
	return rows
}

// TestFlagTable pins the shared flag vocabulary: any rename, default
// change, or new knob must update this table, and because both cmd/twgr
// and cmd/twgrd register through AddFlags/AddCircuitFlags, the two
// binaries cannot drift from each other without failing here.
func TestFlagTable(t *testing.T) {
	run := Default()
	sel := DefaultCircuit()
	fs := flag.NewFlagSet("parity", flag.ContinueOnError)
	AddFlags(fs, &run)
	AddCircuitFlags(fs, &sel)

	want := []flagRow{
		{"algo", "serial", "serial | rowwise | netwise | hybrid"},
		{"chaos-plan", "", "fault-injection plan for the parallel algorithms: delay=P,delayby=D,crash=RANK@N, e.g. delay=0.1,crash=1@25 (see mp.ParsePlan)"},
		{"chaos-seed", "1", "seed of the deterministic fault schedule"},
		{"engine", "virtual", "virtual | inproc | tcp"},
		{"gen-seed", "7", "preset generation seed"},
		{"in", "", "route a circuit from a gensc JSON file"},
		{"netpart", "pinweight", "net partition: center | locus | density | pinweight"},
		{"p", "1", "worker count for the parallel algorithms"},
		{"platform", "smp", "cost model for the virtual engine: smp | dmp"},
		{"preset", "", "route a named synthetic benchmark circuit"},
		{"seed", "1", "routing seed"},
		{"timeout", "0s", "abort the run after this long, e.g. 30s (0 = no limit)"},
		{"workers", "1", "per-rank worker goroutines of the per-net routing phases (output is identical at every setting)"},
	}
	got := tableOf(fs) // VisitAll iterates in lexical order
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag table drifted:\n got %v\nwant %v", got, want)
	}
}

// TestFlagsCoverEveryRunField: a field added to Run without a flag wired
// through AddFlags is exactly the drift the shared package exists to
// prevent.
func TestFlagsCoverEveryRunField(t *testing.T) {
	run := Default()
	fs := flag.NewFlagSet("cover", flag.ContinueOnError)
	AddFlags(fs, &run)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if fields := reflect.TypeOf(run).NumField(); n != fields {
		t.Errorf("AddFlags registers %d flags for %d Run fields: wire the new field through a flag", n, fields)
	}

	sel := DefaultCircuit()
	cfs := flag.NewFlagSet("cover", flag.ContinueOnError)
	AddCircuitFlags(cfs, &sel)
	n = 0
	cfs.VisitAll(func(*flag.Flag) { n++ })
	if fields := reflect.TypeOf(sel).NumField(); n != fields {
		t.Errorf("AddCircuitFlags registers %d flags for %d Circuit fields", n, fields)
	}
}

// TestDistFlagTable pins the multi-process placement flags cmd/twgr
// registers on top of the shared table. They are deliberately not in
// AddFlags: cmd/twgrd owns -addr for its HTTP listener, so folding these
// into the shared vocabulary would collide the two binaries.
func TestDistFlagTable(t *testing.T) {
	var d Dist
	fs := flag.NewFlagSet("dist", flag.ContinueOnError)
	AddDistFlags(fs, &d)

	want := []flagRow{
		{"addr", "", "rendezvous address of a multi-process TCP mesh, e.g. 127.0.0.1:9300 (rank 0 binds it, the other ranks dial it)"},
		{"rank", "0", "this process's rank in the multi-process mesh"},
		{"ranks", "0", "total number of processes in the multi-process mesh"},
	}
	if got := tableOf(fs); !reflect.DeepEqual(got, want) {
		t.Errorf("dist flag table drifted:\n got %v\nwant %v", got, want)
	}

	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if fields := reflect.TypeOf(d).NumField(); n != fields {
		t.Errorf("AddDistFlags registers %d flags for %d Dist fields", n, fields)
	}
}

// TestDistApply: the placement → parallel.Options.Dist resolution and
// every rejection case (wrong engine, serial run, rank out of range,
// -p/-ranks conflicts).
func TestDistApply(t *testing.T) {
	resolve := func(r Run, d Dist) (parallel.Options, error) {
		opts, err := r.Options()
		if err != nil {
			t.Fatalf("options: %v", err)
		}
		return opts, d.Apply(&r, &opts)
	}

	// Zero value: a no-op.
	r := Default()
	if _, err := resolve(r, Dist{}); err != nil {
		t.Errorf("zero dist rejected: %v", err)
	}

	// The two-terminal shape: -algo hybrid -engine tcp -addr ... -rank r -ranks 2.
	r = Default()
	r.Algo = "hybrid"
	r.Engine = "tcp"
	opts, err := resolve(r, Dist{Addr: "127.0.0.1:9300", Rank: 1, Ranks: 2})
	if err != nil {
		t.Fatalf("dist apply: %v", err)
	}
	if opts.Dist == nil || opts.Dist.Rank != 1 || opts.Dist.Ranks != 2 || opts.Dist.Addr != "127.0.0.1:9300" {
		t.Errorf("dist not carried: %+v", opts.Dist)
	}
	if opts.Procs != 2 {
		t.Errorf("default -p 1 should inherit -ranks 2, got Procs %d", opts.Procs)
	}

	// Explicit matching -p is accepted.
	r.Procs = 2
	if opts, err = resolve(r, Dist{Addr: "127.0.0.1:9300", Rank: 0, Ranks: 2}); err != nil || opts.Procs != 2 {
		t.Errorf("matching -p rejected: %v (procs %d)", err, opts.Procs)
	}

	rejects := []struct {
		name string
		mut  func(*Run)
		d    Dist
	}{
		{"rank/ranks without addr", func(r *Run) {}, Dist{Ranks: 2}},
		{"serial run", func(r *Run) { r.Algo = AlgoSerial }, Dist{Addr: "x:1", Ranks: 2}},
		{"non-tcp engine", func(r *Run) { r.Engine = "inproc" }, Dist{Addr: "x:1", Ranks: 2}},
		{"ranks zero", func(r *Run) {}, Dist{Addr: "x:1", Ranks: 0}},
		{"rank out of range", func(r *Run) {}, Dist{Addr: "x:1", Rank: 2, Ranks: 2}},
		{"p/ranks conflict", func(r *Run) { r.Procs = 3 }, Dist{Addr: "x:1", Ranks: 2}},
	}
	for _, tc := range rejects {
		r := Default()
		r.Algo = "hybrid"
		r.Engine = "tcp"
		tc.mut(&r)
		if _, err := resolve(r, tc.d); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestOptionsResolution checks the flag-value → parallel.Options mapping
// that used to live inline in cmd/twgr: engines, platforms, partitions,
// chaos plans, and every rejection case.
func TestOptionsResolution(t *testing.T) {
	for name, mode := range map[string]mp.Mode{"virtual": mp.Virtual, "inproc": mp.Inproc, "tcp": mp.TCP} {
		r := Default()
		r.Engine = name
		opts, err := r.Options()
		if err != nil {
			t.Fatalf("engine %q: %v", name, err)
		}
		if opts.Mode != mode {
			t.Errorf("engine %q resolved to mode %v", name, opts.Mode)
		}
	}

	for _, m := range partition.Methods() {
		r := Default()
		r.NetPart = m.String()
		opts, err := r.Options()
		if err != nil {
			t.Fatalf("netpart %q: %v", m, err)
		}
		if opts.Net.Method != m {
			t.Errorf("netpart %q resolved to %v", m, opts.Net.Method)
		}
	}

	for _, a := range parallel.Algorithms() {
		r := Default()
		r.Algo = a.String()
		opts, err := r.Options()
		if err != nil {
			t.Fatalf("algo %q: %v", a, err)
		}
		if opts.Algo != a {
			t.Errorf("algo %q resolved to %v", a, opts.Algo)
		}
		if r.Serial() {
			t.Errorf("algo %q claims to be serial", a)
		}
	}

	r := Default()
	r.Algo = "rowwise"
	r.ChaosPlan = "delay=0.5"
	r.ChaosSeed = 9
	r.Seed = 42
	r.Procs = 4
	opts, err := r.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Chaos == nil || opts.Chaos.Delay != 0.5 || opts.Chaos.Seed != 9 {
		t.Errorf("chaos plan not resolved: %+v", opts.Chaos)
	}
	if opts.Route.Seed != 42 || opts.Procs != 4 {
		t.Errorf("seed/procs not carried: %+v", opts)
	}

	r = Default()
	r.Workers = 8
	opts, err = r.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Route.Workers != 8 {
		t.Errorf("workers not carried into route options: %+v", opts.Route)
	}

	rejects := []Run{
		func() Run { r := Default(); r.Algo = "quantum"; return r }(),
		func() Run { r := Default(); r.Engine = "udp"; return r }(),
		func() Run { r := Default(); r.Platform = "numa"; return r }(),
		func() Run { r := Default(); r.NetPart = "random"; return r }(),
		func() Run { r := Default(); r.ChaosPlan = "delay=eleven"; return r }(),
		func() Run { r := Default(); r.ChaosPlan = "delay=0.1"; return r }(), // chaos on serial
		func() Run { r := Default(); r.Procs = 0; return r }(),
		func() Run { r := Default(); r.Workers = -1; return r }(),
	}
	for i, r := range rejects {
		if err := r.Validate(); err == nil {
			t.Errorf("reject case %d accepted: %+v", i, r)
		}
	}

	// Drop, dup and reorder are not faults a plan can name: every engine
	// delivers reliably and in order, so the keys are refused at flag time.
	for _, plan := range []string{"drop=0.1", "dup=0.1", "reorder=0.1", "retries=3"} {
		r := Default()
		r.Algo = "rowwise"
		r.ChaosPlan = plan
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "unknown key") {
			t.Errorf("-chaos-plan %s: err = %v, want the unknown-key refusal", plan, err)
		}
	}
}

// TestLoadPreset: the benchmark table plus the test-scale names resolve;
// unknown names fail with the gen error listing the real presets.
func TestLoadPreset(t *testing.T) {
	for _, name := range []string{"tiny", "small", "primary2"} {
		c, err := LoadPreset(name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(c.Rows) == 0 {
			t.Errorf("%s: empty circuit", name)
		}
	}
	if _, err := LoadPreset("nope", 7); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Errorf("unknown preset error = %v", err)
	}
}

// TestCircuitSelection: the -preset/-in exclusivity rules.
func TestCircuitSelection(t *testing.T) {
	c := Circuit{Preset: "tiny", In: "x.json", GenSeed: 7}
	if _, err := c.Load(); err == nil {
		t.Error("preset+in accepted")
	}
	c = Circuit{GenSeed: 7}
	if _, err := c.Load(); err == nil {
		t.Error("empty selection accepted")
	}
	c = Circuit{Preset: "tiny", GenSeed: 7}
	if _, err := c.Load(); err != nil {
		t.Errorf("preset selection failed: %v", err)
	}
}

package parallel

// The chaos soak tier (scripts/check.sh runs it under -race with two
// fixed seeds): the full rowwise/netwise/hybrid pipelines execute under
// seeded fault plans on the virtual engine and must produce metrics JSON
// byte-identical to the fault-free run whenever no rank is lost — the
// effectively-once delivery guarantee end to end. A rank-crash plan must
// degrade to the serial TWGR result instead of hanging, and re-running
// any plan with the same seed must reproduce the identical event log.

import (
	"bytes"
	"context"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"parroute/internal/gen"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/route"
)

// chaosSeed lets CI sweep the fault schedule without a code change.
func chaosSeed(t *testing.T) uint64 {
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	seed, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", s, err)
	}
	return seed
}

// fastTimes shrinks a plan's injected waits so soak runs stay quick.
func fastTimes(p mp.Plan) mp.Plan {
	p.DelayBy = 5 * time.Microsecond
	p.RetryBase = 2 * time.Microsecond
	p.RetryCap = 50 * time.Microsecond
	return p
}

// soakPlans is the fault matrix of the tier; the first row is the
// acceptance-criteria plan (drop 5%, delay 10%).
func soakPlans() []struct {
	name string
	plan mp.Plan
} {
	return []struct {
		name string
		plan mp.Plan
	}{
		{"drop5-delay10", fastTimes(mp.Plan{Drop: 0.05, Delay: 0.10})},
		{"dup-reorder", fastTimes(mp.Plan{Dup: 0.10, Reorder: 0.10})},
		{"everything", fastTimes(mp.Plan{Drop: 0.04, Delay: 0.04, Dup: 0.04, Reorder: 0.04})},
	}
}

func soakOptions(algo Algorithm) Options {
	return Options{
		Algo:  algo,
		Procs: 4,
		Mode:  mp.Virtual,
		Route: route.Options{Seed: 7},
	}
}

// TestChaosSoakByteIdenticalMetrics routes the same circuit fault-free
// and under every soak plan, for all three algorithms, and requires the
// metrics JSON to match byte for byte.
func TestChaosSoakByteIdenticalMetrics(t *testing.T) {
	seed := chaosSeed(t)
	c := gen.Small(42)
	for _, algo := range Algorithms() {
		clean, err := Run(context.Background(), c, soakOptions(algo))
		if err != nil {
			t.Fatalf("%v fault-free: %v", algo, err)
		}
		cleanBytes := resultBytes(t, clean)
		for _, tc := range soakPlans() {
			opt := soakOptions(algo)
			plan := tc.plan
			plan.Seed = seed
			opt.Chaos = &plan
			res, err := Run(context.Background(), c, opt)
			if err != nil {
				t.Errorf("%v %s: %v", algo, tc.name, err)
				continue
			}
			if res.Degraded {
				t.Errorf("%v %s: degraded without a crash plan", algo, tc.name)
			}
			if res.Faults == nil || res.Faults.Sends == 0 {
				t.Fatalf("%v %s: no fault report attached", algo, tc.name)
			}
			injected := res.Faults.Drops + res.Faults.Delays + res.Faults.Dups + res.Faults.Reorders
			if injected == 0 {
				t.Errorf("%v %s: plan injected nothing (%v) — the soak proves nothing", algo, tc.name, res.Faults)
			}
			if blob := resultBytes(t, res); !bytes.Equal(cleanBytes, blob) {
				t.Errorf("%v %s seed=%d: metrics JSON differs from fault-free run (len %d vs %d)",
					algo, tc.name, seed, len(cleanBytes), len(blob))
			}
		}
	}
}

// TestChaosSoakInproc repeats the acceptance plan on the inproc engine:
// routing output is engine-independent, so even with real goroutine races
// the faulty run must reproduce the fault-free bytes.
func TestChaosSoakInproc(t *testing.T) {
	seed := chaosSeed(t)
	c := gen.Small(42)
	opt := soakOptions(RowWise)
	opt.Mode = mp.Inproc
	clean, err := Run(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan := fastTimes(mp.Plan{Drop: 0.05, Delay: 0.10})
	plan.Seed = seed
	opt.Chaos = &plan
	res, err := Run(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, clean), resultBytes(t, res)) {
		t.Errorf("inproc chaos run differs from fault-free run")
	}
}

// TestChaosCrashDegradesToSerial kills a rank mid-phase in each algorithm
// and requires Run to come back (not hang) with the serial TWGR result,
// marked degraded, byte-identical to RunBaseline.
func TestChaosCrashDegradesToSerial(t *testing.T) {
	seed := chaosSeed(t)
	c := gen.Small(42)
	base, err := RunBaseline(context.Background(), c, soakOptions(RowWise))
	if err != nil {
		t.Fatal(err)
	}
	baseBytes := resultBytes(t, base)
	for _, algo := range Algorithms() {
		opt := soakOptions(algo)
		plan := mp.Plan{Seed: seed, Crash: map[int]int{1: 5}}
		opt.Chaos = &plan
		done := make(chan struct{})
		var res *metrics.Result
		var runErr error
		go func() {
			defer close(done)
			res, runErr = Run(context.Background(), c, opt)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("%v: crash plan hung instead of degrading", algo)
		}
		if runErr != nil {
			t.Fatalf("%v: %v", algo, runErr)
		}
		if !res.Degraded {
			t.Fatalf("%v: crash plan did not mark the result degraded", algo)
		}
		if res.Faults == nil || res.Faults.Crashes != 1 {
			t.Errorf("%v: fault report %v, want exactly one crash", algo, res.Faults)
		}
		res.Degraded = false // only the marker may differ from the baseline
		if blob := resultBytes(t, res); !bytes.Equal(baseBytes, blob) {
			t.Errorf("%v: degraded result differs from serial baseline (len %d vs %d)",
				algo, len(baseBytes), len(blob))
		}
	}
}

// TestChaosEventLogReproducibleEndToEnd re-runs the acceptance plan and a
// crash plan through the full rowwise pipeline with the same seed and
// requires identical chaos event logs. Under the crash plan the run must
// also really lose the rank.
func TestChaosEventLogReproducibleEndToEnd(t *testing.T) {
	seed := chaosSeed(t)
	c := gen.Small(42)
	runLog := func(plan mp.Plan) string {
		opt := soakOptions(RowWise)
		plan.Seed = seed
		opt.Chaos = &plan
		var eng mp.Engine
		opt.onEngine = func(e mp.Engine) { eng = e }
		if _, err := Run(context.Background(), c, opt); err != nil {
			t.Fatal(err)
		}
		ce, ok := eng.(*mp.ChaosEngine)
		if !ok {
			t.Fatalf("engine is %T, want *mp.ChaosEngine", eng)
		}
		return strings.Join(ce.EventLog(), "\n")
	}
	for _, tc := range []struct {
		name string
		plan mp.Plan
		note string // the crash record the log must carry, if the plan crashes a rank
	}{
		{"drop5-delay10", fastTimes(mp.Plan{Drop: 0.05, Delay: 0.10}), ""},
		{"crash", mp.Plan{Crash: map[int]int{2: 9}}, "crash rank=2 at-send=9"},
	} {
		first := runLog(tc.plan)
		if first == "" {
			t.Fatalf("%s: empty event log", tc.name)
		}
		if !strings.Contains(first, tc.note) {
			t.Fatalf("%s: event log lacks %q, so nothing crashed", tc.name, tc.note)
		}
		if again := runLog(tc.plan); again != first {
			t.Errorf("%s: same seed produced a different event log", tc.name)
		}
	}
}

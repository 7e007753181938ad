package parallel

// The chaos event log end to end: re-running a fault plan through a full
// driver with the same seed must reproduce the identical log. That routing
// output survives every plan byte for byte is a row of the root
// conformance matrix (TestConformance/library/.../chaos=<plan>).

import (
	"context"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"parroute/internal/gen"
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

// TestChaosEventLogReproducibleEndToEnd re-runs the acceptance plan and a
// crash plan through the full rowwise pipeline with the same seed and
// requires identical chaos event logs. Under the crash plan the run must
// also really lose the rank.
func TestChaosEventLogReproducibleEndToEnd(t *testing.T) {
	seed := chaosSeed(t)
	c := gen.Small(42)
	runLog := func(plan mp.Plan) string {
		opt := Options{Algo: RowWise, Procs: 4, Mode: mp.Virtual, Route: route.Options{Seed: 7}}
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
		{"delay10", mp.Plan{Delay: 0.10, DelayBy: 5 * time.Microsecond}, ""},
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

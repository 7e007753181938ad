package parroute_test

import (
	"context"
	"runtime"
	"testing"

	"parroute/internal/gen"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/parallel"
	"parroute/internal/route"
)

// TestParallelDriverAllocBudget holds the two whole-net drivers and the
// serial router to a committed heap-allocation count: one parallel.Run at
// P=2 on mp.Inproc, or one route.Route at one and two workers, over
// primary2, Mallocs and TotalAlloc read around the call. Neither depends on
// the clock or on GC timing (the count moves by a handful with goroutine
// scheduling), so an append-in-a-loop regression fails here without a
// wall-clock measurement.
//
// Malloc budgets are the measured counts + 25 %, one for plain builds (the
// step of its own in scripts/check.sh) and one for -race builds, where the
// counts are higher and which is how the full gate runs every test: hybrid
// 1832 plain / 3041 -race, net-wise 1490 / 1507 when those two were set,
// route.Route 1403 / 2577 at one worker and 1528 / 2730 at two. The
// route.Route rows were re-measured when steps 2, 4 and 5 became ordered
// band sweeps: one occupancy fewer, a plan and per-pass band state more
// (+49 and +84 in a plain build); the same scratch puts hybrid at 1960 /
// 3165 and net-wise at 1494 / 1517, inside the budgets they had. The
// net-wise row was re-set when its syncs went from whole tables to deltas
// into a shared table kept in place (1329 plain / 1347 -race), and again
// when a rank went from an own and a shared copy of each table to the one
// replica: 974 / 994. Every row but net-wise's fell again when step 3
// regrew the pin lists of the nets that gain feedthroughs in one backing
// array instead of one slices.Grow per net — on primary2 that was 1 150 of
// route.Route's 1 409 mallocs, inside a 1 750 budget, which is why the
// scale smoke tier now holds synth.100k to a malloc ceiling as well: hybrid
// 1967 / 3172 → 823 / 841, route.Route 1409 / 2582 → 253 / 259 at one
// worker and 1530 / 2730 → 449 / 459 at two; net-wise, whose ranks run no
// step 3 of the serial kind, went 974 / 991 → 993 / 1017 (two list builds
// and a pooled refresh per rank). On
// record: 3450, 3062 and 2985 (hybrid, net-wise, route.Route at one worker;
// plain builds) while every feedthrough cell still allocated its own
// one-pin list, and 56941 and 77220 before the drivers moved to the serial
// router's arena and scratch-reuse forms.
//
// The hybrid byte budget keeps the ranks on block-sized sub-circuits: the
// run allocates 8.88 MB, and 12.13 MB when each rank cloned the whole
// circuit and filtered it. It is checked in plain builds only (the step of
// its own in scripts/check.sh): the race runtime adds 3.9 MB to both
// figures, which puts the full clone inside measured + 25 %. The net-wise
// byte budget does the same for its syncs: the run allocates 9.15 MB, and
// 11.62 MB when every sync flattened, summed and rebuilt the whole grid or
// occupancy. The route.Route byte budgets keep step 4 to one output: a run
// allocated 4 351 064 B at one worker and 4 475 648 B at two, and 5 415 296
// and 5 539 592 B while it kept a []Connection and a whole-circuit node
// arena beside the wires.
//
// Every byte budget is now the measured figure + 10 %, set when route.Route
// and the net-wise rank went from a Clone of the circuit to a Fork that
// copies at step 3's first write: route.Route 4 350 872 → 3 318 664 B at one
// worker and 4 477 584 → 3 442 752 B at two, net-wise 8 580 456 → 6 515 576
// B, hybrid (no change) 8 227 128 B. A Clone back on either path fails here.
//
// The hybrid and net-wise rows were re-set (bytes + 10 %, mallocs + 25 %)
// when a rank's own pin nodes stopped travelling as a batch to itself, the
// hybrid wire redistribution stopped copying the wires a rank keeps, and
// the Summary's per-row widths became one agreed core width: hybrid
// 8 226 648 → 7 613 368 B, 801 → 797 mallocs plain, 828 → 823 -race;
// net-wise 6 515 656 → 6 326 952 B, 969 → 975 plain, 998 → 998 -race. The
// byte budgets do not catch one of those copies put back on primary2: the
// self batch is 0.21 MB (hybrid) and 0.19 MB (net-wise), the copy of the
// kept wires 0.39 MB, against 0.77 and 0.63 MB of slack. Re-measured when
// PinWeight became a counting sort and the wire merge one pass: hybrid
// 7 563 576 B, 793 / 812 mallocs; net-wise 6 277 960 B, 971 / 990.
func TestParallelDriverAllocBudget(t *testing.T) {
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	par := func(algo parallel.Algorithm) func() (*metrics.Result, error) {
		opt := parallel.Options{Algo: algo, Procs: 2, Mode: mp.Inproc, Route: route.Options{Seed: 7}}
		return func() (*metrics.Result, error) { return parallel.Run(context.Background(), c, opt) }
	}
	serial := func(workers int) func() (*metrics.Result, error) {
		opt := route.Options{Seed: 7, Workers: workers}
		return func() (*metrics.Result, error) { return route.Route(context.Background(), c, opt) }
	}
	for _, tc := range []struct {
		name  string
		run   func() (*metrics.Result, error)
		plain uint64 // mallocs, plain build
		race  uint64 // mallocs, -race build
		bytes uint64 // TotalAlloc, plain build
	}{
		{"hybrid P=2 inproc", par(parallel.Hybrid), 1000, 1020, 8_320_000},
		{"net-wise P=2 inproc", par(parallel.NetWise), 1220, 1240, 6_910_000},
		{"route.Route workers=1", serial(1), 315, 325, 3_650_000},
		{"route.Route workers=2", serial(2), 560, 575, 3_790_000},
	} {
		budget := tc.plain
		if raceBuild {
			budget = tc.race
		}
		// Warm-up run: one-time runtime and package initialisation stay
		// out of the count.
		if _, err := tc.run(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := tc.run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s primary2: %d mallocs (budget %d), %d bytes (budget %d), %d tracks",
			tc.name, mallocs, budget, bytes, tc.bytes, res.TotalTracks)
		if mallocs > budget {
			t.Errorf("%s: %d mallocs per run, budget %d", tc.name, mallocs, budget)
		}
		if !raceBuild && bytes > tc.bytes {
			t.Errorf("%s: %d bytes allocated per run, budget %d", tc.name, bytes, tc.bytes)
		}
	}
}

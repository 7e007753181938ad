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
// serial router to committed heap-allocation figures: one parallel.Run at
// P=2 on mp.Inproc, or one route.Route at one and two workers, over
// primary2, Mallocs and TotalAlloc read around the call. Neither depends on
// the clock or on GC timing (the counts move by a handful with goroutine
// scheduling), so an append-in-a-loop or a copy put back fails here without
// a wall-clock measurement.
//
// Malloc budgets are the measured counts + 25 %, one for plain builds and
// one for -race builds, which is how the full gate runs every test. Byte
// budgets are checked in plain builds only (a step of its own in
// scripts/check.sh; the race runtime adds 0.4–1.1 MB a row) and carry a
// slack stated in bytes:
//
//	row                     mallocs plain / race   bytes      budget     slack
//	hybrid P=2              780 / 795              4 358 976  4 420 000  61 024
//	net-wise P=2            956 / 977              3 679 248  3 740 000  60 752
//	route.Route workers=1   239 / 244              1 927 192  1 990 000  62 808
//	route.Route workers=2   444 / 450              2 053 456  2 115 000  61 544
//
// Every slack is below the smallest of the savings the int32 records make
// on primary2: a circuit.Cell padded back to 64 bytes adds 196 544 /
// 180 320 / 122 896 / 122 240 bytes to the four rows; a metrics.Wire back
// at 80 bytes adds 387–393 KB to the two serial rows and more to the
// drivers, a PlacedSeg back at 72 bytes 288–304 KB to each row, a Pin back
// at 56 bytes 401–802 KB; any one of them fails all four rows. The history
// of these figures is in CHANGES.md.
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
		{"hybrid P=2 inproc", par(parallel.Hybrid), 1000, 1020, 4_420_000},
		{"net-wise P=2 inproc", par(parallel.NetWise), 1220, 1240, 3_740_000},
		{"route.Route workers=1", serial(1), 315, 325, 1_990_000},
		{"route.Route workers=2", serial(2), 560, 575, 2_115_000},
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

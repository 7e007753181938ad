package parroute_test

import (
	"context"
	"runtime"
	"testing"

	"parroute/internal/gen"
	"parroute/internal/mp"
	"parroute/internal/parallel"
	"parroute/internal/route"
)

// TestParallelDriverAllocBudget holds the two whole-net drivers to a
// committed heap-allocation count: one parallel.Run at P=2 on mp.Inproc
// over primary2, Mallocs and TotalAlloc read around the call. Neither
// depends on the clock or on GC timing (the count moves by a handful with
// goroutine scheduling), so an append-in-a-loop regression in a driver
// fails here without a wall-clock measurement.
//
// Malloc budgets are the measured counts + 25 %: 3450 (hybrid) and 3062
// (net-wise) in a plain build, 4650 and 3085 under -race, which is how the
// full gate runs every test — so the -race counts set the budgets. On
// record: before the drivers moved to the serial router's arena and
// scratch-reuse forms the same runs made 56941 (hybrid) and 77220
// (net-wise) allocations.
//
// The hybrid byte budget keeps the ranks on block-sized sub-circuits: the
// run allocates 8.82 MB, and 12.13 MB when each rank cloned the whole
// circuit and filtered it. It is checked in plain builds only (the step of
// its own in scripts/check.sh): the race runtime adds 4.7 MB to both
// figures, which puts the full clone inside measured + 25 %.
func TestParallelDriverAllocBudget(t *testing.T) {
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		algo   parallel.Algorithm
		budget uint64 // mallocs
		bytes  uint64 // TotalAlloc; 0 = not budgeted
	}{
		{parallel.Hybrid, 5800, 11_000_000},
		{parallel.NetWise, 3850, 0},
	} {
		opt := parallel.Options{Algo: tc.algo, Procs: 2, Mode: mp.Inproc, Route: route.Options{Seed: 7}}
		// Warm-up run: one-time runtime and package initialisation stay
		// out of the count.
		if _, err := parallel.Run(context.Background(), c, opt); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := parallel.Run(context.Background(), c, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%v P=2 inproc primary2: %d mallocs (budget %d), %d bytes (budget %d), %d tracks",
			tc.algo, mallocs, tc.budget, bytes, tc.bytes, res.TotalTracks)
		if mallocs > tc.budget {
			t.Errorf("%v: %d mallocs per run, budget %d", tc.algo, mallocs, tc.budget)
		}
		if tc.bytes > 0 && !raceBuild && bytes > tc.bytes {
			t.Errorf("%v: %d bytes allocated per run, budget %d", tc.algo, bytes, tc.bytes)
		}
	}
}

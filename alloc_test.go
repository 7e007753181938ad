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
// over primary2, Mallocs read around the call. The count does not depend on
// the clock or on GC timing (it moves by a handful with goroutine
// scheduling), so an append-in-a-loop regression in a driver fails here
// without a wall-clock measurement.
//
// Budgets are the measured counts + 25 %: 3405 (hybrid) and 3043 (net-wise)
// in a plain build, 4581 and 3060 under -race, which is how the full gate
// runs every test — so the -race counts set the budgets. On record: before
// the drivers moved to the serial router's arena and scratch-reuse forms
// the same runs made 56941 (hybrid) and 77220 (net-wise) allocations.
func TestParallelDriverAllocBudget(t *testing.T) {
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		algo   parallel.Algorithm
		budget uint64
	}{
		{parallel.Hybrid, 5700},
		{parallel.NetWise, 3800},
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
		mallocs := after.Mallocs - before.Mallocs
		t.Logf("%v P=2 inproc primary2: %d mallocs (budget %d), %d tracks", tc.algo, mallocs, tc.budget, res.TotalTracks)
		if mallocs > tc.budget {
			t.Errorf("%v: %d mallocs per run, budget %d", tc.algo, mallocs, tc.budget)
		}
	}
}

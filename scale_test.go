// Scale smoke: the million-cell growth path of DESIGN.md §15. These tests
// route the synthetic scale presets end to end through the serial router
// with intra-rank workers and check wall-clock and peak-RSS budgets, so a
// memory-layout regression (a band shard going eager: RSS; an arena
// reverting to per-net allocation: the malloc ceiling) fails the gate
// rather than an operator's laptop.
package parroute_test

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"parroute/internal/gen"
	"parroute/internal/parallel"
	"parroute/internal/route"
)

// scaleBudget reads an integer budget override from the environment,
// falling back to the default. Budgets are deliberately loose — they catch
// order-of-magnitude regressions, not percent-level noise.
func scaleBudget(env string, def int64) int64 {
	if s := os.Getenv(env); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// routeScalePreset generates and routes one scale preset, returning the
// routing wall time, the post-route heap in bytes and the heap allocations
// the route made.
func routeScalePreset(t *testing.T, name string, workers int) (time.Duration, uint64, uint64) {
	t.Helper()
	c, err := gen.Benchmark(name, 7)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := parallel.RunBaseline(context.Background(), c, parallel.Options{
		Procs: 1,
		Route: route.Options{Seed: 7, Workers: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if res.TotalTracks <= 0 {
		t.Fatalf("%s: routed to %d tracks", name, res.TotalTracks)
	}
	t.Logf("%s workers=%d: %v, %d tracks, heap %d MiB (peak sys %d MiB), %d mallocs",
		name, workers, elapsed.Round(time.Millisecond), res.TotalTracks,
		ms.HeapAlloc>>20, ms.Sys>>20, ms.Mallocs-before.Mallocs)
	return elapsed, ms.Sys, ms.Mallocs - before.Mallocs
}

// TestScaleSmoke100k routes synth.100k (100k cells, ~333k pins) within a
// wall-clock budget (SCALE_100K_WALL_S) and a memory budget
// (SCALE_100K_RSS_MB), both defaulting to measured + slack (below), and a malloc
// ceiling of 5 000, which needs no override: the count does not depend on
// the machine, and one figure holds at any worker count (a few hundred
// measured at one worker and at two; ≈ 37 000 while step 3 grew one pin
// list per net, which wall and RSS both sailed under). Skipped under
// -short.
func TestScaleSmoke100k(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping scale smoke in -short mode")
	}
	// Peak sys is the process's, so it counts what the root package's
	// other tests left behind. Measured on a 2-core x86-64 host at workers
	// 2: 84–88 MiB run alone, 110 MiB after the rest of the package, and
	// 138 MiB after it under -race. The budget is the largest of these
	// plus a stated slack in MiB.
	const scaleRSSMeasured, scaleRSSSlack = 138, 64
	// The route's wall on the same host, in seconds: 0.12–0.33, and 1.6
	// under -race, rounded up. The slack is generous, as a clock on a
	// shared box needs.
	const scaleWallMeasured, scaleWallSlack = 2, 8
	wallBudget := time.Duration(scaleBudget("SCALE_100K_WALL_S", scaleWallMeasured+scaleWallSlack)) * time.Second
	rssBudget := uint64(scaleBudget("SCALE_100K_RSS_MB", scaleRSSMeasured+scaleRSSSlack)) << 20

	elapsed, sys, mallocs := routeScalePreset(t, "synth.100k", runtime.GOMAXPROCS(0))
	if mallocs > 5000 {
		t.Errorf("synth.100k route made %d heap allocations, ceiling 5000: an arena has gone back to allocating per net", mallocs)
	}
	if elapsed > wallBudget {
		t.Errorf("synth.100k took %v, budget %v (override SCALE_100K_WALL_S)", elapsed, wallBudget)
	}
	if sys > rssBudget {
		t.Errorf("synth.100k used %d MiB, budget %d MiB (override SCALE_100K_RSS_MB)",
			sys>>20, rssBudget>>20)
	}
}

// TestScale1M routes the million-cell preset within a memory budget
// (SCALE_1M_RSS_MB, default measured + slack). It takes about 5 s and
// 0.6 GiB, so plain `go test` skips it: set SCALE_1M=1 (the CI scale tier
// does).
func TestScale1M(t *testing.T) {
	if os.Getenv("SCALE_1M") == "" {
		t.Skip("set SCALE_1M=1 to route the million-cell preset")
	}
	// Peak sys on a 2-core x86-64 host at workers 2: 557 MiB run alone and
	// 617 MiB after synth.100k in the same process (735 MiB while the
	// circuit records held slice headers). The budget is the larger plus
	// a stated slack in MiB, below that difference.
	const scale1MRSSMeasured, scale1MRSSSlack = 617, 96
	rssBudget := uint64(scaleBudget("SCALE_1M_RSS_MB", scale1MRSSMeasured+scale1MRSSSlack)) << 20
	_, sys, _ := routeScalePreset(t, "synth.1m", runtime.GOMAXPROCS(0))
	if sys > rssBudget {
		t.Errorf("synth.1m used %d MiB, budget %d MiB (override SCALE_1M_RSS_MB)",
			sys>>20, rssBudget>>20)
	}
}

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

// TestParallelDriverAllocBudget holds the three parallel drivers and the
// serial router to committed heap-allocation figures: one parallel.Run at
// P=2 on mp.Inproc (net-wise over mp.TCP too), or one route.Route at one
// and two workers, over primary2, Mallocs and TotalAlloc read around the
// call. Neither depends on the clock or on GC timing (the counts move by a
// handful with goroutine scheduling), so an append-in-a-loop or a copy put
// back fails here without a wall-clock measurement.
//
// Malloc budgets are the measured counts + 25 %, one for plain builds and
// one for -race builds, which is how the full gate runs every test. Byte
// budgets are checked in plain builds only (a step of its own in
// scripts/check.sh; the race runtime adds 0.4–1.1 MB a row) and carry a
// slack stated in bytes:
//
//	row                     mallocs plain / race   bytes      budget     slack
//	hybrid P=2              749 / 767              3 660 448  3 709 000  48 552
//	row-wise P=2            709 / 725              3 067 200  3 116 000  48 800
//	net-wise P=2            943 / 963              3 201 120  3 250 000  48 880
//	net-wise P=2 tcp        1 268 / 1 397          3 993 208  4 041 000  47 792
//	route.Route workers=1   243 / 248              1 824 936  1 873 000  48 064
//	route.Route workers=2   450 / 455              1 954 752  2 003 000  48 248
//
// Every slack is below what the flat circuit lists saved on its row (131 /
// 273 / 102 / 96 KB: Fork no longer copies the row and net headers, a
// regrown Cell is 16 bytes, not 40), so a record that holds a slice again
// fails the hybrid, net-wise and serial rows; so does a circuit.Cell padded
// to 64 bytes, a metrics.Wire back at 80 bytes (387–393 KB on the serial
// rows, more on the drivers), a PlacedSeg back at 72 bytes (288–304 KB) or
// a Pin back at 56 bytes (401–802 KB). The driver rows' slacks are also
// below what ranks reading their own data in place saved (hybrid 577 KB,
// net-wise 206 KB): with the copying wire concatenation put back the hybrid
// row reads 3 848 416 bytes, and with the two-pass circuit.Block, which
// walked every base pin list twice through closures, 3 824 656 on the
// hybrid row and 3 238 032 on the row-wise one. The tcp row's slack is
// below what streaming frames through bounded link buffers saved: with the
// whole-frame buffers put back (each link's send buffer and read scratch
// grown to its largest frame) it reads 4 182 584–4 187 176 bytes. The
// history of these figures is in CHANGES.md.
func TestParallelDriverAllocBudget(t *testing.T) {
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	par := func(algo parallel.Algorithm, mode mp.Mode) func() (*metrics.Result, error) {
		opt := parallel.Options{Algo: algo, Procs: 2, Mode: mode, Route: route.Options{Seed: 7}}
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
		{"hybrid P=2 inproc", par(parallel.Hybrid, mp.Inproc), 940, 960, 3_709_000},
		{"row-wise P=2 inproc", par(parallel.RowWise, mp.Inproc), 890, 910, 3_116_000},
		{"net-wise P=2 inproc", par(parallel.NetWise, mp.Inproc), 1180, 1205, 3_250_000},
		{"net-wise P=2 tcp", par(parallel.NetWise, mp.TCP), 1585, 1750, 4_041_000},
		{"route.Route workers=1", serial(1), 315, 325, 1_873_000},
		{"route.Route workers=2", serial(2), 560, 575, 2_003_000},
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

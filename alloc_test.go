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
//	hybrid P=2              750 / 765              3 299 968  3 348 000  48 032
//	row-wise P=2            709 / 725              2 830 048  2 878 000  47 952
//	net-wise P=2            949 / 964              2 969 024  3 017 000  47 976
//	net-wise P=2 tcp        1 214 / 1 244          3 700 952  3 749 000  48 048
//	route.Route workers=1   243 / 248              1 710 264  1 758 000  47 736
//	route.Route workers=2   449 / 454              1 837 168  1 885 000  47 832
//
// Every slack is below what the flat circuit lists saved on its row (131 /
// 273 / 102 / 96 KB: Fork no longer copies the row and net headers, a
// regrown Cell is 16 bytes, not 40), so a record that holds a slice again
// fails the hybrid, net-wise and serial rows; so does a circuit.Cell padded
// to 64 bytes, a metrics.Wire padded back to 40 bytes (it adds 361 / 237 /
// 238 / 290 KB on the driver rows, 113–115 KB on the serial ones), a
// PlacedSeg back at 72 bytes (288–304 KB) or a Pin back at 56 bytes
// (401–802 KB). The driver rows' slacks are also
// below what ranks reading their own data in place saved (hybrid 577 KB,
// net-wise 206 KB): with the copying wire concatenation put back the hybrid
// row reads 3 848 416 bytes, and with the two-pass circuit.Block, which
// walked every base pin list twice through closures, 3 824 656 on the
// hybrid row and 3 238 032 on the row-wise one (both with 40-byte wires).
// The tcp row's slack is below what streaming frames through bounded link
// buffers saved (about 190 KB: with the whole-frame buffers put back, each
// link's send buffer and read scratch grown to its largest frame, it read
// 4 182 584–4 187 176 bytes against 3 993 208 streamed, with 40-byte
// wires), and its malloc budget below the boxing of every []int32 sync
// message as a flat payload (54 objects a run). The history of these
// figures is in CHANGES.md.
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
		{"hybrid P=2 inproc", par(parallel.Hybrid, mp.Inproc), 940, 960, 3_348_000},
		{"row-wise P=2 inproc", par(parallel.RowWise, mp.Inproc), 890, 910, 2_878_000},
		{"net-wise P=2 inproc", par(parallel.NetWise, mp.Inproc), 1180, 1205, 3_017_000},
		{"net-wise P=2 tcp", par(parallel.NetWise, mp.TCP), 1520, 1555, 3_749_000},
		{"route.Route workers=1", serial(1), 315, 325, 1_758_000},
		{"route.Route workers=2", serial(2), 560, 575, 1_885_000},
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

package parallel

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/route"
	"parroute/internal/workpool"
)

// TestWorkersByteIdentical pins the deterministic-reduction contract of the
// intra-rank net parallelism: -workers is a throughput knob, never a quality
// knob. The serial router's metrics JSON must be byte-identical at every
// worker count — and, for primary2, identical to the committed workers=1
// golden, so the pooled code path can never drift from the canonical output.
func TestWorkersByteIdentical(t *testing.T) {
	for _, name := range []string{"primary2", "biomed"} {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := gen.Benchmark(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			var ref []byte
			for _, w := range []int{1, 2, 8} {
				res, err := RunBaseline(context.Background(), c, Options{
					Procs: 1,
					Route: route.Options{Seed: 7, Workers: w},
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				got := resultBytes(t, res)
				if w == 1 {
					ref = got
					continue
				}
				if !bytes.Equal(ref, got) {
					t.Fatalf("workers=%d metrics differ from workers=1 (len %d vs %d)",
						w, len(got), len(ref))
				}
			}
			if name == "primary2" {
				want, err := os.ReadFile(filepath.Join("testdata", "golden", "primary2-serial.json"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, ref) {
					t.Fatal("workers sweep output differs from the committed golden")
				}
			}
		})
	}
}

// TestPlacedSegStaysSmall pins the size of the array every stage streams,
// once per worker in the grid load: 72 bytes a segment (128 while it still
// embedded its Steiner segment, of which only the net was ever read). A new
// field is a cost to every pass, so it has to be put here on purpose.
func TestPlacedSegStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(route.PlacedSeg{}); size > 72 {
		t.Fatalf("route.PlacedSeg is %d bytes, at most 72 expected", size)
	}
}

// TestWorkersByteIdenticalParallelDrivers runs the same sweep through a
// parallel driver: intra-rank workers compose with inter-rank procs without
// perturbing the result.
func TestWorkersByteIdenticalParallelDrivers(t *testing.T) {
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms() {
		var ref []byte
		for _, w := range []int{1, 8} {
			res, err := Run(context.Background(), c, Options{
				Algo:  algo,
				Procs: 2,
				Mode:  mp.Inproc,
				Route: route.Options{Seed: 7, Workers: w},
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", algo, w, err)
			}
			got := resultBytes(t, res)
			if w == 1 {
				ref = got
				continue
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("%v: workers=%d metrics differ from workers=1", algo, w)
			}
		}
	}
}

// TestWorkersByteIdenticalAtSeams routes at eight workers with the cut
// threshold of the ordered band sweeps (coarse flips, wire placement, switch
// flips) lowered until even gen.Small is cut into eight bands, on all the
// box's processors and on one: the serial router and the hybrid driver must
// still produce the committed goldens, and — a wait that only ends when the
// peer owns a core hangs on one P and nowhere else — inside the watchdog.
func TestWorkersByteIdenticalAtSeams(t *testing.T) {
	defer workpool.SetMinBandOpsForTest(8)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	primary2, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	circuits := map[string]*circuit.Circuit{"small": gen.Small(42), "primary2": primary2}
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		runtime.GOMAXPROCS(procs)
		type routed struct {
			golden string
			res    *metrics.Result
			err    error
		}
		out := make(chan routed, 2*len(circuits)) // every send, so a failed check strands nobody
		go func() {
			defer close(out)
			for name, c := range circuits {
				opt := Options{Procs: 1, Route: route.Options{Seed: 7, Workers: 8}}
				res, err := RunBaseline(context.Background(), c, opt)
				out <- routed{name + "-serial.json", res, err}
				opt.Algo, opt.Procs, opt.Mode = Hybrid, 2, mp.Inproc
				res, err = Run(context.Background(), c, opt)
				out <- routed{name + "-hybrid-p2.json", res, err}
			}
		}()
		for watchdog := time.After(2 * time.Minute); ; {
			var r routed
			var ok bool
			select {
			case r, ok = <-out:
			case <-watchdog:
				t.Fatalf("routing at eight workers on %d P did not finish", procs)
			}
			if !ok {
				break
			}
			if r.err != nil {
				t.Fatalf("%s on %d P: %v", r.golden, procs, r.err)
			}
			checkGolden(t, r.golden, resultBytes(t, r.res), false)
		}
	}
}

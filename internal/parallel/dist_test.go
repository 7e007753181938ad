package parallel

// The multi-process tier of the golden oracle: every rank of the mesh
// runs parallel.Run with its own Options.Dist — its own engine, its own
// sockets — exactly as N separate twgr processes would, and rank 0's
// merged metrics JSON must stay byte-identical to the committed goldens.
// Routing output is transport-independent; the framed TCP mesh is just
// another engine under the same algorithms.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/route"
)

// distAddr reserves a loopback rendezvous address: bind, record, release.
func distAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// runDist executes Run at every rank of a ranks-wide TCP mesh, one
// goroutine per rank standing in for one OS process, and returns each
// rank's result and error. Only rank 0 may carry a result.
func runDist(t *testing.T, c *circuit.Circuit, opt Options, ranks int) ([]*metrics.Result, []error) {
	t.Helper()
	addr := distAddr(t)
	results := make([]*metrics.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := opt
			o.Procs = ranks
			o.Mode = mp.TCP
			o.Dist = &mp.NetConfig{Rank: r, Ranks: ranks, Addr: addr, RendezvousTimeout: 30 * time.Second}
			results[r], errs[r] = Run(context.Background(), c, o)
		}(r)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatalf("distributed run over %d ranks hung", ranks)
	}
	return results, errs
}

// distResult runs the mesh and asserts the healthy-path contract: no
// rank errors, workers return nil, rank 0 returns the merged result.
func distResult(t *testing.T, c *circuit.Circuit, opt Options, ranks int) *metrics.Result {
	t.Helper()
	results, errs := runDist(t, c, opt, ranks)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 1; r < ranks; r++ {
		if results[r] != nil {
			t.Fatalf("worker rank %d returned a result; only rank 0 gathers", r)
		}
	}
	if results[0] == nil {
		t.Fatal("rank 0 returned no result")
	}
	return results[0]
}

// TestDistMeshMatchesGoldens routes both golden circuits with all three
// algorithms across 1-, 2- and 4-rank process meshes and requires rank
// 0's metrics JSON to match the committed goldens byte for byte — the
// same files the inproc and virtual engines are pinned to.
func TestDistMeshMatchesGoldens(t *testing.T) {
	primary2, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	circuits := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"small", gen.Small(42)},
		{"primary2", primary2},
	}
	for _, tc := range circuits {
		t.Run(tc.name, func(t *testing.T) {
			for _, algo := range Algorithms() {
				for _, ranks := range []int{1, 2, 4} {
					res := distResult(t, tc.c, Options{Algo: algo, Route: route.Options{Seed: 7}}, ranks)
					name := fmt.Sprintf("%s-%v-p%d.json", tc.name, algo, ranks)
					want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
					if err != nil {
						t.Fatalf("missing golden %s: %v", name, err)
					}
					if got := resultBytes(t, res); !bytes.Equal(want, got) {
						t.Errorf("%v ranks=%d: multi-process metrics JSON differs from golden %s (len %d vs %d)",
							algo, ranks, name, len(want), len(got))
					}
				}
			}
		})
	}
}

// TestDistChaosCrashDegradesAtRankZero kills one process of the mesh
// mid-phase: rank 0 must come back degraded with the serial baseline
// bytes, and the surviving workers must read the loss as ErrRankLost —
// the cross-process version of TestChaosCrashDegradesToSerial. (The
// Chaos/Crash name keeps it inside the check.sh soak tier.)
func TestDistChaosCrashDegradesAtRankZero(t *testing.T) {
	seed := chaosSeed(t)
	c := gen.Small(42)
	base, err := RunBaseline(context.Background(), c, Options{Procs: 1, Route: route.Options{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	baseBytes := resultBytes(t, base)

	plan := mp.Plan{Seed: seed, Crash: map[int]int{1: 5}}
	opt := Options{Algo: RowWise, Route: route.Options{Seed: 7}, Chaos: &plan}
	results, errs := runDist(t, c, opt, 3)

	if errs[0] != nil {
		t.Fatalf("rank 0: %v, want a degraded result", errs[0])
	}
	res := results[0]
	if res == nil || !res.Degraded {
		t.Fatalf("rank 0 result = %+v, want the degraded serial fallback", res)
	}
	res.Degraded = false // only the marker may differ from the baseline
	if blob := resultBytes(t, res); !bytes.Equal(baseBytes, blob) {
		t.Errorf("degraded result differs from serial baseline (len %d vs %d)", len(baseBytes), len(blob))
	}
	// The crashed rank and the bystander both lose the mesh; neither may
	// hand back a result of its own.
	for _, r := range []int{1, 2} {
		if !errors.Is(errs[r], mp.ErrRankLost) {
			t.Errorf("rank %d returned %v, want ErrRankLost", r, errs[r])
		}
		if results[r] != nil {
			t.Errorf("rank %d returned a result after losing the mesh", r)
		}
	}
}

// TestDistRanksMismatchRejected: Procs is what the algorithms partition
// for; a mesh of a different width must be refused, not reconciled.
func TestDistRanksMismatchRejected(t *testing.T) {
	opt := Options{
		Algo:  RowWise,
		Procs: 4,
		Mode:  mp.TCP,
		Route: route.Options{Seed: 7},
		Dist:  &mp.NetConfig{Rank: 0, Ranks: 2, Addr: "127.0.0.1:1"},
	}
	if _, err := Run(context.Background(), gen.Small(42), opt); err == nil {
		t.Fatal("Dist.Ranks != Procs accepted")
	}
}

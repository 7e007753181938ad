package route

import (
	"context"
	"slices"
	"strings"
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/metrics"
)

func routeSmall(t *testing.T, seed uint64) (*circuit.Circuit, *Router, *metrics.Result) {
	t.Helper()
	c := gen.Small(seed)
	rt := NewRouter(c.Clone(), Options{Seed: seed})
	res, err := rt.Run(context.Background())
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	return c, rt, res
}

// mustRoute is the test-side shim over the context-taking entry point.
func mustRoute(t *testing.T, c *circuit.Circuit, opt Options) *metrics.Result {
	t.Helper()
	res, err := Route(context.Background(), c, opt)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	return res
}

func TestRouteLeavesInputUntouched(t *testing.T) {
	c := gen.Small(1)
	cells, pins := len(c.Cells), len(c.Pins)
	mustRoute(t, c, Options{Seed: 1})
	if len(c.Cells) != cells || len(c.Pins) != pins {
		t.Fatal("Route mutated its input circuit")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("input corrupted: %v", err)
	}
}

func TestRouteDeterministic(t *testing.T) {
	c := gen.Small(3)
	a := mustRoute(t, c, Options{Seed: 9})
	b := mustRoute(t, c, Options{Seed: 9})
	if a.TotalTracks != b.TotalTracks || a.Area != b.Area || a.Wirelength != b.Wirelength {
		t.Fatalf("same seed differs: %d/%d tracks", a.TotalTracks, b.TotalTracks)
	}
	if len(a.Wires) != len(b.Wires) {
		t.Fatal("wire counts differ")
	}
	for i := range a.Wires {
		if a.Wires[i] != b.Wires[i] {
			t.Fatalf("wire %d differs", i)
		}
	}
	c2 := mustRoute(t, c, Options{Seed: 10})
	if c2.TotalTracks == a.TotalTracks && c2.SwitchFlips == a.SwitchFlips &&
		c2.CoarseFlips == a.CoarseFlips {
		t.Fatal("different seeds produced suspiciously identical runs")
	}
}

func TestRouterCircuitStaysValidThroughPhases(t *testing.T) {
	c := gen.Small(5)
	rt := NewRouter(c.Clone(), Options{Seed: 5})
	ctx := context.Background()
	steps := []struct {
		name string
		f    func() error
	}{
		{"trees", func() error { return rt.BuildTrees(ctx) }},
		{"coarse", func() error { return rt.CoarseRoute(ctx) }},
		{"insert", rt.InsertFeedthroughs},
		{"assign", func() error { return rt.AssignFeedthroughs(ctx) }},
		{"connect", func() error { return rt.ConnectNets(ctx) }},
		{"switch", func() error { return rt.OptimizeSwitchable(ctx) }},
	}
	for _, s := range steps {
		if err := s.f(); err != nil {
			t.Fatalf("step %s: %v", s.name, err)
		}
		if err := rt.C.Validate(); err != nil {
			t.Fatalf("circuit invalid after %s: %v", s.name, err)
		}
	}
}

func TestFeedthroughBookkeepingExact(t *testing.T) {
	_, rt, res := routeSmall(t, 7)
	if rt.ExtraFts != 0 {
		t.Fatalf("%d crossings were not covered by the demand estimate", rt.ExtraFts)
	}
	if rt.UnboundFts != 0 {
		t.Fatalf("%d feedthroughs inserted but never bound", rt.UnboundFts)
	}
	// Every inserted feedthrough cell carries exactly one pin, bound to a
	// real net.
	ftCells := 0
	for i := range rt.C.Cells {
		if !rt.C.Cells[i].Feed {
			continue
		}
		ftCells++
		if len(rt.C.CellPins(i)) != 1 {
			t.Fatalf("feedthrough cell %d has %d pins", i, len(rt.C.CellPins(i)))
		}
		pid := rt.C.CellPins(i)[0]
		pin := &rt.C.Pins[pid]
		if pin.Net == circuit.NoNet {
			t.Fatalf("feedthrough pin %d unbound", pid)
		}
		if pin.Side != circuit.Both {
			t.Fatalf("feedthrough pin side = %v", pin.Side)
		}
	}
	if ftCells != rt.InsertedFts || res.Feedthroughs != rt.InsertedFts {
		t.Fatalf("ft counts disagree: cells=%d inserted=%d result=%d",
			ftCells, rt.InsertedFts, res.Feedthroughs)
	}
}

// pinsAt returns the pins of net at (x, row) in the routed circuit.
func pinsAt(rt *Router, net, x, row int32) []*circuit.Pin {
	var out []*circuit.Pin
	for _, pid := range rt.C.NetPins(int(net)) {
		if p := &rt.C.Pins[pid]; p.X == x && p.Row == row {
			out = append(out, p)
		}
	}
	return out
}

func TestEveryMultiPinNetFullyConnected(t *testing.T) {
	_, rt, res := routeSmall(t, 11)
	if res.ForcedEdges != 0 {
		t.Fatalf("%d forced edges: feedthrough coverage has gaps", res.ForcedEdges)
	}
	// Per net: k-1 wires, and they join every pin position of the net.
	wires := map[int][]metrics.Wire{}
	for _, w := range rt.Wires {
		wires[int(w.Net)] = append(wires[int(w.Net)], w)
	}
	for n := range rt.C.Nets {
		pins := rt.C.NetPins(n)
		if len(pins) < 2 {
			if len(wires[n]) != 0 {
				t.Fatalf("net %d: %d wires for %d pins", n, len(wires[n]), len(pins))
			}
			continue
		}
		if len(wires[n]) != len(pins)-1 {
			t.Fatalf("net %d: %d wires for %d pins", n, len(wires[n]), len(pins))
		}
		at := map[[2]int32]int{} // position -> its index among the net's positions
		for _, pid := range pins {
			p := &rt.C.Pins[pid]
			k := [2]int32{p.X, p.Row}
			if _, ok := at[k]; !ok {
				at[k] = len(at)
			}
		}
		uf := newUnionFind(len(at))
		for _, w := range wires[n] {
			a, aOK := at[[2]int32{w.AX, w.ARow}]
			b, bOK := at[[2]int32{w.BX, w.BRow}]
			if !aOK || !bOK {
				t.Fatalf("net %d: wire %+v ends off the net's pins", n, w)
			}
			uf.union(a, b)
		}
		for i := range at {
			if uf.find(at[i]) != uf.find(0) {
				t.Fatalf("net %d: pins at %v disconnected", n, i)
			}
		}
	}
}

// TestConnectNetsTwiceReplacesResult: step 4 is slot-addressed from length
// zero, so running it again on the same router yields the same wires — it
// used to append a second copy behind the first.
func TestConnectNetsTwiceReplacesResult(t *testing.T) {
	c := gen.Small(9)
	rt := NewRouter(c.Clone(), Options{Seed: 9, Workers: 2})
	ctx := context.Background()
	if err := rt.BuildTrees(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rt.CoarseRoute(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertFeedthroughs(); err != nil {
		t.Fatal(err)
	}
	if err := rt.AssignFeedthroughs(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rt.ConnectNets(ctx); err != nil {
		t.Fatal(err)
	}
	wires, forced := slices.Clone(rt.Wires), rt.ForcedEdges
	if len(wires) == 0 {
		t.Fatal("no wires")
	}
	if err := rt.ConnectNets(ctx); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rt.Wires, wires) || rt.ForcedEdges != forced {
		t.Fatalf("second ConnectNets: %d wires, %d forced; first %d, %d",
			len(rt.Wires), rt.ForcedEdges, len(wires), forced)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestWireChannelsConsistentWithEndpoints(t *testing.T) {
	// Every wire's channel must be reachable from a pin of its net at each
	// of its endpoints (the route has no forced wires).
	_, rt, res := routeSmall(t, 17)
	if res.ForcedEdges != 0 {
		t.Fatalf("%d forced edges", res.ForcedEdges)
	}
	for i, w := range rt.Wires {
		for _, end := range [][2]int32{{w.AX, w.ARow}, {w.BX, w.BRow}} {
			reached := false
			for _, p := range pinsAt(rt, w.Net, end[0], end[1]) {
				lo, hi, _ := p.Channels()
				reached = reached || int(w.Channel) >= lo && int(w.Channel) <= hi
			}
			if !reached {
				t.Fatalf("wire %d in channel %d unreachable from its endpoint at (%d, row %d)",
					i, w.Channel, end[0], end[1])
			}
		}
	}
}

func TestResultMetricsConsistent(t *testing.T) {
	_, rt, res := routeSmall(t, 19)
	d := metrics.ChannelDensities(rt.C.NumChannels(), res.Wires, 1)
	if metrics.TotalTracks(d) != res.TotalTracks {
		t.Fatal("TotalTracks does not match recomputation")
	}
	if res.CoreWidth != rt.C.CoreWidth() {
		t.Fatal("core width mismatch")
	}
	if res.Area <= 0 || res.Wirelength <= 0 || res.TotalTracks <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if len(res.Phases) != 6 {
		t.Fatalf("%d phases recorded", len(res.Phases))
	}
}

func TestCoarsePassesConverge(t *testing.T) {
	// More passes never increase the grid cost proxy dramatically; the
	// flip counter grows monotonically with passes.
	c := gen.Small(23)
	r1 := mustRoute(t, c, Options{Seed: 1, CoarsePasses: 1})
	r4 := mustRoute(t, c, Options{Seed: 1, CoarsePasses: 4})
	if r4.CoarseFlips < r1.CoarseFlips {
		t.Fatalf("flips decreased with more passes: %d vs %d", r4.CoarseFlips, r1.CoarseFlips)
	}
}

func TestOptionsNormalize(t *testing.T) {
	var o Options
	o.Normalize()
	if o.CoarsePasses <= 0 || o.SwitchPasses <= 0 || o.Workers <= 0 {
		t.Fatalf("defaults missing: %+v", o)
	}
	o2 := Options{SwitchPasses: 5, CoarsePasses: 9}
	o2.Normalize()
	if o2.SwitchPasses != 5 || o2.CoarsePasses != 9 {
		t.Fatal("Normalize clobbered explicit settings")
	}
}

func TestSwitchableWiresOnlyFromEquivalentEndpoints(t *testing.T) {
	_, rt, _ := routeSmall(t, 31)
	for i, w := range rt.Wires {
		if !w.Switchable {
			continue
		}
		if w.BRow != w.ARow {
			t.Fatalf("switchable wire %d between rows %d and %d", i, w.ARow, w.BRow)
		}
		for _, x := range []int32{w.AX, w.BX} {
			if !slices.ContainsFunc(pinsAt(rt, w.Net, x, w.ARow), func(p *circuit.Pin) bool { return p.Side == circuit.Both }) {
				t.Fatalf("switchable wire %d ends at (%d, row %d), where net %d has no Both-sided pin", i, x, w.ARow, w.Net)
			}
		}
	}
}

func TestFeedthroughsBoundToCrossingNets(t *testing.T) {
	// Each net's bound feedthroughs must lie within the net's row span
	// (a feedthrough outside the span could never help connectivity).
	base, rt, _ := routeSmall(t, 37)
	_ = base
	for n := range rt.C.Nets {
		pins := rt.C.NetPins(n)
		minRow, maxRow := int32(1<<30), int32(-1)
		for _, pid := range pins {
			p := &rt.C.Pins[pid]
			if p.Cell != circuit.NoCell && rt.C.Cells[p.Cell].Feed {
				continue
			}
			if p.Row < minRow {
				minRow = p.Row
			}
			if p.Row > maxRow {
				maxRow = p.Row
			}
		}
		for _, pid := range pins {
			p := &rt.C.Pins[pid]
			if p.Cell == circuit.NoCell || !rt.C.Cells[p.Cell].Feed {
				continue
			}
			if p.Row < minRow-1 || p.Row > maxRow {
				t.Fatalf("net %d: feedthrough in row %d outside pin span %d..%d",
					n, p.Row, minRow, maxRow)
			}
		}
	}
}

func TestVerifyPassesOnCleanRoute(t *testing.T) {
	_, rt, _ := routeSmall(t, 41)
	if err := rt.Verify(); err != nil {
		t.Fatalf("clean route failed verification: %v", err)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	check := func(name string, corrupt func(rt *Router)) {
		c := gen.Small(41)
		rt := NewRouter(c.Clone(), Options{Seed: 41})
		if _, err := rt.Run(context.Background()); err != nil {
			t.Fatalf("route: %v", err)
		}
		corrupt(rt)
		if err := rt.Verify(); err == nil {
			t.Errorf("%s: Verify accepted a corrupted route", name)
		}
	}
	check("dropped-wire", func(rt *Router) {
		rt.Wires = rt.Wires[:len(rt.Wires)-1]
	})
	check("extra-wire", func(rt *Router) {
		rt.Wires = append(rt.Wires, rt.Wires[0])
	})
	check("wire-bad-channel", func(rt *Router) {
		rt.Wires[0].Channel = 9999
	})
	check("wire-net-mismatch", func(rt *Router) {
		rt.Wires[0].Net = rt.Wires[0].Net + 1
	})
	check("phantom-extra-fts", func(rt *Router) {
		rt.ExtraFts = 3
	})
	check("unbound-fts", func(rt *Router) {
		rt.UnboundFts = 1
	})
	check("circuit-corruption", func(rt *Router) {
		rt.C.Pins[0].X += 1000
	})
}

// TestVerifyNamesFeedthroughCounter pins the PR 4 invariant: a nonzero
// ExtraFts or UnboundFts is a hard Verify failure whose message names the
// broken counter, even when every other invariant still holds.
func TestVerifyNamesFeedthroughCounter(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(rt *Router)
		want    string
	}{
		{"extra-fts", func(rt *Router) { rt.ExtraFts = 2 }, "not covered by the demand estimate"},
		{"unbound-fts", func(rt *Router) { rt.UnboundFts = 1 }, "never bound"},
	}
	for _, tc := range cases {
		_, rt, _ := routeSmall(t, 11)
		tc.corrupt(rt)
		err := rt.Verify()
		if err == nil {
			t.Fatalf("%s: Verify accepted a nonzero counter", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the counter (want substring %q)", tc.name, err, tc.want)
		}
	}
}

// TestFeedthroughCountersZeroAcrossSeeds runs the full pipeline over a
// spread of generated circuits and requires the feedthrough bookkeeping to
// close exactly every time: demand estimation covers all crossings and
// every inserted feedthrough is bound.
func TestFeedthroughCountersZeroAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		_, rt, _ := routeSmall(t, seed)
		if rt.ExtraFts != 0 || rt.UnboundFts != 0 {
			t.Errorf("seed %d: ExtraFts=%d UnboundFts=%d, want 0/0", seed, rt.ExtraFts, rt.UnboundFts)
		}
		if err := rt.Verify(); err != nil {
			t.Errorf("seed %d: Verify: %v", seed, err)
		}
	}
}

func TestQualityIndependentOfNetOrder(t *testing.T) {
	// The paper's claim (1) for TWGR: "the solution quality is independent
	// of the routing order of the nets". Permute net IDs (same geometry,
	// different processing order) and require near-identical track counts.
	base := gen.Small(47)
	res1 := mustRoute(t, base, Options{Seed: 3})

	// Rebuild the circuit with reversed net numbering.
	perm := make([]int, len(base.Nets))
	for i := range perm {
		perm[i] = len(base.Nets) - 1 - i
	}
	shuffled := &circuit.Circuit{
		Name: base.Name, CellHeight: base.CellHeight, FeedWidth: base.FeedWidth,
	}
	for range base.Rows {
		shuffled.AddRow()
	}
	for r := range base.Rows {
		for _, cid := range base.RowCells(r) {
			shuffled.AddCell(r, int(base.Cells[cid].Width))
		}
	}
	for range base.Nets {
		shuffled.AddNet("")
	}
	for i := range base.Pins {
		p := &base.Pins[i]
		shuffled.AddPin(int(p.Cell), perm[p.Net], int(p.Offset), p.Side)
	}
	if err := shuffled.Validate(); err != nil {
		t.Fatal(err)
	}
	res2 := mustRoute(t, shuffled, Options{Seed: 3})

	diff := float64(res2.TotalTracks-res1.TotalTracks) / float64(res1.TotalTracks)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.03 {
		t.Fatalf("net order changed quality by %.1f%% (%d vs %d tracks)",
			100*diff, res2.TotalTracks, res1.TotalTracks)
	}
}

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
		if len(rt.C.Cells[i].Pins) != 1 {
			t.Fatalf("feedthrough cell %d has %d pins", i, len(rt.C.Cells[i].Pins))
		}
		pin := &rt.C.Pins[rt.C.Cells[i].Pins[0]]
		if pin.Net == circuit.NoNet {
			t.Fatalf("feedthrough pin %d unbound", pin.ID)
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

func TestEveryMultiPinNetFullyConnected(t *testing.T) {
	_, rt, res := routeSmall(t, 11)
	if res.ForcedEdges != 0 {
		t.Fatalf("%d forced edges: feedthrough coverage has gaps", res.ForcedEdges)
	}
	// Per net: the connections form a spanning tree over its nodes.
	conns := map[int][]Connection{}
	for _, c := range rt.Conns {
		conns[c.Net] = append(conns[c.Net], c)
	}
	for n, nodes := range rt.NetNodes {
		if len(nodes) < 2 {
			continue
		}
		cs := conns[n]
		if len(cs) != len(nodes)-1 {
			t.Fatalf("net %d: %d connections for %d nodes", n, len(cs), len(nodes))
		}
		uf := newUnionFind(len(nodes))
		for _, c := range cs {
			uf.union(c.U, c.V)
		}
		root := uf.find(0)
		for i := range nodes {
			if uf.find(i) != root {
				t.Fatalf("net %d: node %d disconnected", n, i)
			}
		}
	}
}

func TestWiresMatchConnections(t *testing.T) {
	_, rt, _ := routeSmall(t, 13)
	if len(rt.Wires) != len(rt.Conns) {
		t.Fatalf("wires %d vs conns %d", len(rt.Wires), len(rt.Conns))
	}
	for i := range rt.Conns {
		c := &rt.Conns[i]
		w := &rt.Wires[i]
		if w.Net != c.Net {
			t.Fatalf("wire %d net mismatch", i)
		}
		if !c.Switchable && w.Channel != c.Channel {
			t.Fatalf("wire %d channel mismatch (fixed wire)", i)
		}
		if c.Switchable && w.Channel != c.Row && w.Channel != c.Row+1 {
			t.Fatalf("switchable wire %d in channel %d, candidates %d/%d",
				i, w.Channel, c.Row, c.Row+1)
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
	wires, conns, forced := slices.Clone(rt.Wires), slices.Clone(rt.Conns), rt.ForcedEdges
	if len(wires) == 0 {
		t.Fatal("no wires")
	}
	if err := rt.ConnectNets(ctx); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rt.Wires, wires) || !slices.Equal(rt.Conns, conns) || rt.ForcedEdges != forced {
		t.Fatalf("second ConnectNets: %d wires, %d conns, %d forced; first %d, %d, %d",
			len(rt.Wires), len(rt.Conns), rt.ForcedEdges, len(wires), len(conns), forced)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestWireChannelsConsistentWithEndpoints(t *testing.T) {
	// Every non-forced wire's channel must be reachable from both of its
	// endpoint nodes.
	_, rt, _ := routeSmall(t, 17)
	for i := range rt.Conns {
		c := &rt.Conns[i]
		if c.Forced {
			continue
		}
		nodes := rt.NetNodes[c.Net]
		w := rt.Wires[i]
		for _, end := range []Node{nodes[c.U], nodes[c.V]} {
			lo, hi, _ := end.Channels()
			if w.Channel < lo || w.Channel > hi {
				t.Fatalf("wire %d in channel %d unreachable from node at row %d side %v",
					i, w.Channel, end.Row, end.Side)
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
	if o.GridColWidth <= 0 || o.CoarsePasses <= 0 || o.SwitchPasses <= 0 ||
		o.TrackPitch <= 0 || o.Workers <= 0 {
		t.Fatalf("defaults missing: %+v", o)
	}
	o2 := Options{GridColWidth: 5, CoarsePasses: 9}
	o2.Normalize()
	if o2.GridColWidth != 5 || o2.CoarsePasses != 9 {
		t.Fatal("Normalize clobbered explicit settings")
	}
}

func TestSwitchableWiresOnlyFromEquivalentEndpoints(t *testing.T) {
	_, rt, _ := routeSmall(t, 31)
	for i := range rt.Conns {
		c := &rt.Conns[i]
		if !c.Switchable {
			continue
		}
		nodes := rt.NetNodes[c.Net]
		u, v := nodes[c.U], nodes[c.V]
		if u.Side != circuit.Both || v.Side != circuit.Both || u.Row != v.Row {
			t.Fatalf("switchable connection between (%v row %d) and (%v row %d)",
				u.Side, u.Row, v.Side, v.Row)
		}
	}
}

func TestFeedthroughsBoundToCrossingNets(t *testing.T) {
	// Each net's bound feedthroughs must lie within the net's row span
	// (a feedthrough outside the span could never help connectivity).
	base, rt, _ := routeSmall(t, 37)
	_ = base
	for n := range rt.C.Nets {
		pins := rt.C.Nets[n].Pins
		minRow, maxRow := 1<<30, -1
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
	check("dropped-connection", func(rt *Router) {
		rt.Conns = rt.Conns[:len(rt.Conns)-1]
		rt.Wires = rt.Wires[:len(rt.Wires)-1]
	})
	check("wire-count-mismatch", func(rt *Router) {
		rt.Wires = rt.Wires[:len(rt.Wires)-1]
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
		for _, cid := range base.Rows[r].Cells {
			shuffled.AddCell(r, base.Cells[cid].Width)
		}
	}
	for range base.Nets {
		shuffled.AddNet("")
	}
	for i := range base.Pins {
		p := &base.Pins[i]
		shuffled.AddPin(p.Cell, perm[p.Net], p.Offset, p.Side)
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

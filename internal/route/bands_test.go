package route

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/geom"
	"parroute/internal/grid"
	"parroute/internal/metrics"
	"parroute/internal/rng"
	"parroute/internal/workpool"
)

// The three order-dependent sweeps as they were before they ran as ordered
// band sweeps: plain loops in visit order on one goroutine. They are the
// definition TestBandSweepsMatchSerialForms holds the banded forms to.

// flipCand is the per-candidate geometry cache step 2 used to carry: the
// full horizontal span and the grid columns of the two endpoints.
type flipCand struct {
	seg        int
	span       geom.Interval
	colP, colQ int
}

func refImproveBends(g *grid.Grid, segs []PlacedSeg, r *rng.RNG, passes int) int {
	var cands []flipCand
	for i := range segs {
		ps := &segs[i]
		if ps.HasBend() && ps.XP != ps.XQ {
			cands = append(cands, flipCand{seg: i, span: geom.NewInterval(int(ps.XP), int(ps.XQ)),
				colP: g.ColOf(int(ps.XP)), colQ: g.ColOf(int(ps.XQ))})
		}
	}
	flips := 0
	perm := make([]int, len(cands))
	for pass := 0; pass < passes; pass++ {
		r.PermInto(perm)
		improved := false
		for _, pi := range perm {
			fc := &cands[pi]
			ps := &segs[fc.seg]
			cp, cq := int(ps.CP), int(ps.CQ)
			chFrom, chTo := cp, cq
			fromCol, toCol := fc.colQ, fc.colP
			if ps.BendAtP {
				chFrom, chTo = cq, cp
				fromCol, toCol = fc.colP, fc.colQ
			}
			delta := g.SpanCost(chFrom, chTo, fc.span) +
				g.VertMoveCost(cp, cq-1, fromCol, toCol)
			if delta < 0 {
				g.MoveWire(chFrom, chTo, fc.span)
				g.MoveVert(cp, cq-1, fromCol, toCol)
				ps.BendAtP = !ps.BendAtP
				flips++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return flips
}

func refPlaceWires(o *Occupancy, wires []metrics.Wire) {
	for i := range wires {
		w := &wires[i]
		if w.Switchable && o.AddCost(int(w.Row())+1, w.Span()) < o.AddCost(int(w.Row()), w.Span()) {
			w.Channel = w.Row() + 1
		}
		o.Add(int(w.Channel), w.Span(), 1)
	}
}

func refOptimizeSwitchable(wires []metrics.Wire, occ *Occupancy, r *rng.RNG, passes int) int {
	var switchable []int
	for i := range wires {
		if wires[i].Switchable && !wires[i].Span().Empty() {
			switchable = append(switchable, i)
		}
	}
	flips := 0
	perm := make([]int, len(switchable))
	for pass := 0; pass < passes; pass++ {
		r.PermInto(perm)
		improved := false
		for _, pi := range perm {
			w := &wires[switchable[pi]]
			other := w.OtherChannel()
			if occ.MoveCost(int(w.Channel), other, w.Span()) < 0 {
				occ.Add(int(w.Channel), w.Span(), -1)
				occ.Add(other, w.Span(), 1)
				w.Channel = int32(other)
				flips++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return flips
}

// bandCircuits are the circuits the differential tests route: row counts on
// both sides of a slab boundary, so seams fall inside slabs and between them.
func bandCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	out := []*circuit.Circuit{gen.Small(3), gen.Small(11)}
	for i, cfg := range []gen.Config{
		{Rows: 5, Cells: 400, Nets: 420, TargetPins: 1500},
		{Rows: 15, Cells: 900, Nets: 950, TargetPins: 3400},
		{Rows: 17, Cells: 1300, Nets: 1250, TargetPins: 4600, GiantNets: []int{150}},
		{Rows: 33, Cells: 2000, Nets: 2100, TargetPins: 7400},
	} {
		cfg.Name, cfg.Seed = fmt.Sprintf("bands%d", i), uint64(20+i)
		c, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// TestBandSweepsMatchSerialForms routes six circuits at one, two, three and
// eight workers — with the cut threshold lowered so that even these have
// that many bands — and holds each banded sweep to its serial form run on a
// copy of the same input: every bend, both grid tables, every wire, the
// occupancy, the flip counts, and where the rng stands afterwards.
func TestBandSweepsMatchSerialForms(t *testing.T) {
	defer workpool.SetMinBandOpsForTest(16)()
	ctx := context.Background()
	for _, c := range bandCircuits(t) {
		for _, workers := range []int{1, 2, 3, 8} {
			name := fmt.Sprintf("%s workers=%d", c.Name, workers)
			rt := NewRouter(c.Clone(), Options{Seed: 5, Workers: workers})
			if err := rt.BuildTrees(ctx); err != nil {
				t.Fatal(err)
			}

			refSegs, refRand := slices.Clone(rt.Segs), *rt.Rand
			refGrid := grid.New(len(rt.C.Rows), rt.C.CoreWidth(), grid.ColWidth)
			for i := range refSegs {
				ApplyRuns(refGrid, refSegs[i].CurrentRuns(), 1)
			}
			refFlips := refImproveBends(refGrid, refSegs, &refRand, rt.Opt.CoarsePasses)
			if err := rt.CoarseRoute(ctx); err != nil {
				t.Fatal(err)
			}
			if rt.CoarseFlips != refFlips || refFlips == 0 {
				t.Fatalf("%s: %d coarse flips, serial form %d", name, rt.CoarseFlips, refFlips)
			}
			for i := range refSegs {
				if rt.Segs[i].BendAtP != refSegs[i].BendAtP {
					t.Fatalf("%s: segment %d bends differently from the serial form", name, i)
				}
			}
			if !slices.Equal(gridTable(rt.Grid), gridTable(refGrid)) {
				t.Fatalf("%s: coarse grid differs from the serial form", name)
			}
			if *rt.Rand != refRand {
				t.Fatalf("%s: rng stands elsewhere after the coarse sweep", name)
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
			// The trees do not depend on placement: put every switchable wire
			// back in its lower channel and place the copy serially.
			refWires := slices.Clone(rt.Wires)
			for i := range refWires {
				if refWires[i].Switchable {
					refWires[i].Channel = refWires[i].Row()
				}
			}
			refOcc := NewOccupancy(rt.occ.Channels, rt.C.CoreWidth(), grid.ColWidth)
			refPlaceWires(refOcc, refWires)
			if !slices.Equal(rt.Wires, refWires) {
				t.Fatalf("%s: placed wires differ from the serial form", name)
			}
			if !slices.Equal(rt.occ.Counts(), refOcc.Counts()) {
				t.Fatalf("%s: occupancy after placement differs from the serial form", name)
			}

			occ := rt.occ
			refRand = *rt.Rand
			refSwitch := refOptimizeSwitchable(refWires, refOcc, &refRand, rt.Opt.SwitchPasses)
			if err := rt.OptimizeSwitchable(ctx); err != nil {
				t.Fatal(err)
			}
			if rt.SwitchFlips != refSwitch || refSwitch == 0 {
				t.Fatalf("%s: %d switch flips, serial form %d", name, rt.SwitchFlips, refSwitch)
			}
			if !slices.Equal(rt.Wires, refWires) || !slices.Equal(occ.Counts(), refOcc.Counts()) {
				t.Fatalf("%s: step 5 differs from the serial form", name)
			}
			if *rt.Rand != refRand {
				t.Fatalf("%s: rng stands elsewhere after step 5", name)
			}
		}
	}
}

// TestBandsWriteOneSlab puts a seam inside a slab nothing has written yet:
// wires in channels 2 and 5 of an empty occupancy, placed by two bands. The
// slab is created by its first writer, so without the reserve call both
// bands create it — which -race reports, and which loses one band's counts.
func TestBandsWriteOneSlab(t *testing.T) {
	defer workpool.SetMinBandOpsForTest(16)()
	var wires []metrics.Wire
	for i := 0; i < 200; i++ {
		x := 16 * (i % 20)
		wires = append(wires, metrics.Wire{Net: int32(i), Channel: int32(2 + 3*(i%2)), AX: int32(x), BX: int32(x + 40)})
	}
	occ := NewOccupancy(16, 400, 16)
	if err := occ.PlaceWires(context.Background(), 2, wires); err != nil {
		t.Fatal(err)
	}
	ref := NewOccupancy(16, 400, 16)
	ref.AddWires(wires)
	if !slices.Equal(occ.Counts(), ref.Counts()) {
		t.Fatal("two bands writing one slab lost counts")
	}
	if occ.counts.HasSlab(grid.BandRows) {
		t.Fatal("reserve allocated a slab no hull covers")
	}
}

// TestKeptOccupancyMatchesRebuilt pins that the occupancy ConnectNets hands
// to step 5 is the one step 5 used to build from the wires — counts and
// peak caches — and that step 5 builds its own when nothing was kept.
func TestKeptOccupancyMatchesRebuilt(t *testing.T) {
	ctx := context.Background()
	c := gen.Small(9)
	var results [2]*metrics.Result
	for i, keep := range []bool{true, false} {
		rt := NewRouter(c.Clone(), Options{Seed: 9})
		for _, step := range []func() error{
			func() error { return rt.BuildTrees(ctx) },
			func() error { return rt.CoarseRoute(ctx) },
			rt.InsertFeedthroughs,
			func() error { return rt.AssignFeedthroughs(ctx) },
			func() error { return rt.ConnectNets(ctx) },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		if rt.occ == nil {
			t.Fatal("the serial router kept no occupancy")
		}
		rebuilt := NewOccupancy(rt.C.NumChannels(), rt.C.CoreWidth(), grid.ColWidth)
		rebuilt.AddWires(rt.Wires)
		if !slices.Equal(rt.occ.Counts(), rebuilt.Counts()) || !slices.Equal(rt.occ.chMax, rebuilt.chMax) ||
			!slices.Equal(rt.occ.chPeakCnt, rebuilt.chPeakCnt) || !slices.Equal(rt.occ.chMaxOK, rebuilt.chMaxOK) {
			t.Fatal("kept occupancy differs from one rebuilt from the wires")
		}
		if !keep {
			rt.occ = nil
		}
		if err := rt.OptimizeSwitchable(ctx); err != nil {
			t.Fatal(err)
		}
		if rt.occ != nil {
			t.Fatal("step 5 left the occupancy behind")
		}
		results[i] = rt.Result("twgr-serial", 1, 0)
	}
	if results[0].SwitchFlips != results[1].SwitchFlips || !slices.Equal(results[0].Wires, results[1].Wires) {
		t.Fatal("step 5 on the kept occupancy differs from step 5 on its own")
	}
}

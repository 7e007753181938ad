package route

import (
	"testing"
	"unsafe"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/geom"
	"parroute/internal/grid"
	"parroute/internal/steiner"
)

// pinCircuit builds a circuit with one wide cell per row and returns a
// helper that creates a pin at (x, row, side) on a fresh net.
func pinCircuit(t *testing.T, rows int) (*circuit.Circuit, func(x, row int, side circuit.Side) int) {
	t.Helper()
	c := &circuit.Circuit{Name: "p", CellHeight: 10, FeedWidth: 2}
	for r := 0; r < rows; r++ {
		c.AddRow()
		c.AddCell(r, 2000)
	}
	return c, func(x, row int, side circuit.Side) int {
		return c.AddPin(int(c.RowCells(row)[0]), circuit.NoNet, x, side)
	}
}

// seg builds a placed segment between two existing pins.
func placedBetween(c *circuit.Circuit, netID, pinA, pinB int) PlacedSeg {
	s := steiner.NewSegment(netID, pinA, c.Pins[pinA].Point(), pinB, c.Pins[pinB].Point())
	return Place(c, s)
}

// TestPlacedSegStaysSmall pins the size of the array every stage streams,
// once per worker in the grid load: 36 bytes a segment, eight int32 fields
// and the bend (72 with int fields, 128 while it still embedded its Steiner
// segment, of which only the net was ever read). A new field is a cost to
// every pass, so it has to be put here on purpose. Step 3's crossing arena
// holds one record per (segment, row) crossing: 12 bytes, three int32s.
func TestPlacedSegStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(PlacedSeg{}); size > 36 {
		t.Fatalf("PlacedSeg is %d bytes, at most 36 expected", size)
	}
	if size := unsafe.Sizeof(crossing{}); size > 12 {
		t.Fatalf("crossing is %d bytes, at most 12 expected", size)
	}
}

func TestPlaceCrossRowAccessChannels(t *testing.T) {
	c, pin := pinCircuit(t, 6)
	cases := []struct {
		sideP, sideQ   circuit.Side
		rowP, rowQ     int
		wantCP, wantCQ int
	}{
		{circuit.Bottom, circuit.Top, 1, 4, 1, 5},
		{circuit.Top, circuit.Bottom, 1, 4, 2, 4},
		{circuit.Both, circuit.Both, 1, 4, 2, 4}, // both enter toward each other
		{circuit.Bottom, circuit.Bottom, 1, 4, 1, 4},
		{circuit.Top, circuit.Top, 1, 4, 2, 5},
		// Adjacent rows meeting in the shared channel: no vertical run.
		{circuit.Top, circuit.Bottom, 2, 3, 3, 3},
		{circuit.Both, circuit.Both, 2, 3, 3, 3},
	}
	for i, tc := range cases {
		p := pin(100, tc.rowP, tc.sideP)
		q := pin(300, tc.rowQ, tc.sideQ)
		ps := placedBetween(c, 0, p, q)
		if int(ps.CP) != tc.wantCP || int(ps.CQ) != tc.wantCQ {
			t.Errorf("case %d: channels %d,%d want %d,%d", i, ps.CP, ps.CQ, tc.wantCP, tc.wantCQ)
		}
		if ps.SwitchRow != -1 {
			t.Errorf("case %d: cross-row segment marked switchable", i)
		}
		if tc.wantCP != tc.wantCQ && !ps.HasBend() {
			t.Errorf("case %d: expected a bend choice", i)
		}
	}
}

func TestPlaceFlatSegments(t *testing.T) {
	c, pin := pinCircuit(t, 3)
	// Both-Both: switchable.
	p := pin(10, 1, circuit.Both)
	q := pin(50, 1, circuit.Both)
	ps := placedBetween(c, 0, p, q)
	if ps.SwitchRow != 1 {
		t.Fatalf("Both-Both flat segment not switchable: %+v", ps)
	}
	if ps.CP != 1 || ps.CQ != 1 {
		t.Fatalf("switchable channels %d,%d", ps.CP, ps.CQ)
	}
	// Both-Bottom: matches the fixed pin's channel.
	q2 := pin(80, 1, circuit.Bottom)
	ps = placedBetween(c, 0, p, q2)
	if ps.CP != 1 || ps.CQ != 1 || ps.SwitchRow != -1 {
		t.Fatalf("Both-Bottom: %+v", ps)
	}
	// Both-Top.
	q3 := pin(80, 1, circuit.Top)
	ps = placedBetween(c, 0, p, q3)
	if ps.CP != 2 || ps.CQ != 2 {
		t.Fatalf("Both-Top channels %d,%d", ps.CP, ps.CQ)
	}
	// Bottom-Top: disjoint channels, one-row vertical run.
	a := pin(10, 1, circuit.Bottom)
	b := pin(90, 1, circuit.Top)
	ps = placedBetween(c, 0, a, b)
	if ps.CP != 1 || ps.CQ != 2 || !ps.HasBend() {
		t.Fatalf("Bottom-Top flat: %+v", ps)
	}
	runs := ps.CurrentRuns()
	if !runs.HasVert() || runs.VLo != 1 || runs.VHi != 1 {
		t.Fatalf("Bottom-Top runs: %+v", runs)
	}
}

func TestRunsGeometry(t *testing.T) {
	c, pin := pinCircuit(t, 6)
	p := pin(100, 1, circuit.Bottom) // channel 1
	q := pin(300, 4, circuit.Top)    // channel 5
	ps := placedBetween(c, 0, p, q)

	vertFirst := ps.RunsFor(true) // vertical at XP=100
	if vertFirst.VCol != 100 || vertFirst.VLo != 1 || vertFirst.VHi != 4 {
		t.Fatalf("vertical-first runs: %+v", vertFirst)
	}
	if !vertFirst.HLo.Empty() {
		t.Fatalf("vertical-first should have no low horizontal, got %v", vertFirst.HLo)
	}
	if vertFirst.HHi != geom.NewInterval(100, 300) || vertFirst.HHiCh != 5 {
		t.Fatalf("vertical-first high horizontal: %+v", vertFirst)
	}

	horizFirst := ps.RunsFor(false) // vertical at XQ=300
	if horizFirst.VCol != 300 {
		t.Fatalf("horizontal-first vertical at %d", horizFirst.VCol)
	}
	if horizFirst.HLo != geom.NewInterval(100, 300) || horizFirst.HLoCh != 1 {
		t.Fatalf("horizontal-first low horizontal: %+v", horizFirst)
	}
	if !horizFirst.HHi.Empty() {
		t.Fatalf("horizontal-first should have no high horizontal")
	}
}

func TestRunsGridRoundTrip(t *testing.T) {
	// Adding then removing both orientations leaves the grid empty.
	c, pin := pinCircuit(t, 6)
	p := pin(100, 1, circuit.Bottom)
	q := pin(300, 4, circuit.Top)
	ps := placedBetween(c, 0, p, q)
	g := grid.New(6, 2000, 16)
	for _, bend := range []bool{true, false} {
		runs := ps.RunsFor(bend)
		ApplyRuns(g, runs, 1)
		ApplyRuns(g, runs, -1)
	}
	for _, v := range g.DensCounts() {
		if v != 0 {
			t.Fatal("grid residue after add/remove")
		}
	}
	for _, v := range gridTable(g)[g.Channels*g.Cols:] {
		if v != 0 {
			t.Fatal("ft residue after add/remove")
		}
	}
}

func TestRunsCostConsistency(t *testing.T) {
	// Cost must equal the sum of column costs computed by hand for a
	// simple case, and both orientations must cross the same rows.
	c, pin := pinCircuit(t, 6)
	p := pin(0, 1, circuit.Bottom)
	q := pin(63, 4, circuit.Top) // channels 1..5, 4 columns at width 16
	ps := placedBetween(c, 0, p, q)
	g := grid.New(6, 2000, 16)
	a := ps.RunsFor(true)
	b := ps.RunsFor(false)
	if a.VHi-a.VLo != b.VHi-b.VLo {
		t.Fatal("orientations cross different numbers of rows")
	}
	costA := runsCost(g, a, 10)
	costB := runsCost(g, b, 10)
	// Empty grid: cost = horizontal columns (4 each at density 0 -> 1 per
	// column) + 4 rows x ftBase 10.
	if costA != 4+40 || costB != 4+40 {
		t.Fatalf("costs on empty grid: %d, %d (want 44)", costA, costB)
	}
}

func TestPlaceViaExportedHelpers(t *testing.T) {
	c := gen.Tiny(4)
	for n := range c.Nets {
		for _, seg := range steiner.BuildNet(c, n) {
			ps := Place(c, seg)
			if ps.CP > ps.CQ {
				t.Fatalf("net %d: channels not normalized: %+v", n, ps)
			}
			if ps.CP < 0 || int(ps.CQ) > c.NumChannels()-1 {
				t.Fatalf("net %d: channels out of range: %+v", n, ps)
			}
			if c.Pins[ps.PinAtP].X != ps.XP || c.Pins[ps.PinAtQ].X != ps.XQ {
				t.Fatalf("net %d: pin back-references broken: %+v", n, ps)
			}
			// The exported ApplyRuns undoes itself.
			g := grid.New(len(c.Rows), c.CoreWidth(), 16)
			runs := ps.CurrentRuns()
			ApplyRuns(g, runs, 1)
			ApplyRuns(g, runs, -1)
			for _, v := range g.DensCounts() {
				if v != 0 {
					t.Fatal("exported ApplyRuns not inverse")
				}
			}
		}
	}
}

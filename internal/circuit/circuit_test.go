package circuit

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// buildTiny makes a 2-row circuit: two cells per row, one net across rows,
// one net within a row.
func buildTiny(t *testing.T) *Circuit {
	t.Helper()
	c := &Circuit{Name: "tiny", CellHeight: 10, FeedWidth: 2}
	r0 := c.AddRow()
	r1 := c.AddRow()
	c0 := c.AddCell(r0, 8)
	c1 := c.AddCell(r0, 6)
	c2 := c.AddCell(r1, 8)
	c3 := c.AddCell(r1, 8)
	n0 := c.AddNet("cross")
	n1 := c.AddNet("flat")
	c.AddPin(c0, n0, 2, Bottom)
	c.AddPin(c2, n0, 4, Top)
	c.AddPin(c1, n1, 1, Both)
	c.AddPin(c3, n1, 3, Bottom)
	if err := c.Validate(); err != nil {
		t.Fatalf("tiny circuit invalid: %v", err)
	}
	return c
}

func TestAddCellPositions(t *testing.T) {
	c := buildTiny(t)
	if c.Cells[0].X != 0 || c.Cells[1].X != 8 {
		t.Fatalf("row 0 cell positions: %d, %d", c.Cells[0].X, c.Cells[1].X)
	}
	if c.RowWidth(0) != 14 || c.RowWidth(1) != 16 {
		t.Fatalf("row widths: %d, %d", c.RowWidth(0), c.RowWidth(1))
	}
	if c.CoreWidth() != 16 {
		t.Fatalf("core width: %d", c.CoreWidth())
	}
	if c.NumChannels() != 3 {
		t.Fatalf("channels: %d", c.NumChannels())
	}
}

func TestPinPositionsAndChannels(t *testing.T) {
	c := buildTiny(t)
	p := &c.Pins[0] // cell 0 offset 2, Bottom, row 0
	if p.X != 2 || p.Row != 0 {
		t.Fatalf("pin 0 at (%d, row %d)", p.X, p.Row)
	}
	lo, hi, both := p.Channels()
	if lo != 0 || hi != 0 || both {
		t.Fatalf("bottom pin channels = %d..%d both=%v", lo, hi, both)
	}
	p = &c.Pins[1] // Top, row 1
	lo, hi, both = p.Channels()
	if lo != 2 || hi != 2 || both {
		t.Fatalf("top pin channels = %d..%d both=%v", lo, hi, both)
	}
	p = &c.Pins[2] // Both, row 0
	lo, hi, both = p.Channels()
	if lo != 0 || hi != 1 || !both {
		t.Fatalf("both pin channels = %d..%d both=%v", lo, hi, both)
	}
}

func TestInsertFeedthroughShiftsCellsAndPins(t *testing.T) {
	c := buildTiny(t)
	// Insert into row 0 at x=8 (between cell 0 and cell 1).
	pinID := c.InsertFeedthrough(0, 8, 0)
	if err := c.Validate(); err != nil {
		t.Fatalf("after insertion: %v", err)
	}
	ft := &c.Pins[pinID]
	if ft.Net != 0 || ft.Side != Both || ft.Row != 0 {
		t.Fatalf("feedthrough pin = %+v", ft)
	}
	ftCell := &c.Cells[ft.Cell]
	if !ftCell.Feed || ftCell.X != 8 || ftCell.Width != 2 {
		t.Fatalf("feedthrough cell = %+v", ftCell)
	}
	// Cell 1 and its pin must have shifted by FeedWidth.
	if c.Cells[1].X != 10 {
		t.Fatalf("cell 1 x = %d, want 10", c.Cells[1].X)
	}
	if c.Pins[2].X != 11 { // was 8+1=9, now 10+1=11
		t.Fatalf("pin on shifted cell at x=%d, want 11", c.Pins[2].X)
	}
	// Cell 0 must not have moved.
	if c.Cells[0].X != 0 || c.Pins[0].X != 2 {
		t.Fatal("cells left of the insertion moved")
	}
	// Row width grew.
	if c.RowWidth(0) != 16 {
		t.Fatalf("row width = %d, want 16", c.RowWidth(0))
	}
	// The net gained the feedthrough pin.
	found := false
	for _, pid := range c.NetPins(0) {
		if int(pid) == pinID {
			found = true
		}
	}
	if !found {
		t.Fatal("feedthrough pin not attached to its net")
	}
}

func TestInsertFeedthroughAtRowEnds(t *testing.T) {
	c := buildTiny(t)
	// Before everything.
	c.InsertFeedthrough(0, 0, NoNet)
	if err := c.Validate(); err != nil {
		t.Fatalf("insert at start: %v", err)
	}
	// Far beyond the row end.
	c.InsertFeedthrough(0, 10000, NoNet)
	if err := c.Validate(); err != nil {
		t.Fatalf("insert at end: %v", err)
	}
	last := c.RowCells(0)[len(c.RowCells(0))-1]
	if !c.Cells[last].Feed {
		t.Fatal("append-insert should land at the row end")
	}
}

func TestInsertFeedthroughShiftsFakePins(t *testing.T) {
	c := buildTiny(t)
	f1 := c.AddFakePin(0, 12, 0, Top) // right of the upcoming insertion
	f2 := c.AddFakePin(0, 4, 0, Top)  // left of it
	c.InsertFeedthrough(0, 8, NoNet)
	if c.Pins[f1].X != 14 {
		t.Fatalf("fake pin right of insertion at x=%d, want 14", c.Pins[f1].X)
	}
	if c.Pins[f2].X != 4 {
		t.Fatalf("fake pin left of insertion moved to x=%d", c.Pins[f2].X)
	}
}

func TestFakePin(t *testing.T) {
	c := buildTiny(t)
	id := c.AddFakePin(1, 7, 1, Bottom)
	p := &c.Pins[id]
	if !p.Fake || p.Cell != NoCell || p.X != 7 || p.Row != 1 {
		t.Fatalf("fake pin = %+v", p)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("circuit with fake pin invalid: %v", err)
	}
	found := false
	for _, pid := range c.NetPins(1) {
		if int(pid) == id {
			found = true
		}
	}
	if !found {
		t.Fatal("fake pin not attached to its net")
	}
}

func TestCloneIsDeepAndIndependent(t *testing.T) {
	c := buildTiny(t)
	cl := c.Clone()
	if err := cl.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	// Mutating the clone must not touch the original.
	cl.InsertFeedthrough(0, 8, 0)
	cl.AddFakePin(1, 3, 0, Top)
	SetNetPins(cl, 1, append(cl.NetPins(1), 0))
	if len(c.Cells) != 4 {
		t.Fatalf("original gained cells: %d", len(c.Cells))
	}
	if len(c.Pins) != 4 {
		t.Fatalf("original gained pins: %d", len(c.Pins))
	}
	if len(c.NetPins(1)) != 2 {
		t.Fatalf("original net 1 has %d pins", len(c.NetPins(1)))
	}
	if c.Cells[1].X != 8 {
		t.Fatal("original cell positions changed")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("original corrupted by clone mutation: %v", err)
	}
}

// TestCloneSharedBackingSafety: the lists share one array per kind, so
// appending to one list a circuit hands out must copy out, not clobber the
// next list (every list comes capped at its length).
func TestCloneSharedBackingSafety(t *testing.T) {
	c := buildTiny(t)
	cl := c.Clone()
	before := append([]int32(nil), cl.NetPins(1)...)
	_ = append(cl.NetPins(0), 99)
	for i, pid := range cl.NetPins(1) {
		if pid != before[i] {
			t.Fatalf("net 1 pins corrupted by append to net 0: %v vs %v", cl.NetPins(1), before)
		}
	}
	// Same for rows and cells.
	r1, p1 := append([]int32(nil), cl.RowCells(1)...), append([]int32(nil), cl.CellPins(1)...)
	_, _ = append(cl.RowCells(0), 98), append(cl.CellPins(0), 97)
	if !slices.Equal(cl.RowCells(1), r1) || !slices.Equal(cl.CellPins(1), p1) {
		t.Fatal("row 1 cells or cell 1 pins corrupted by an append to row 0 or cell 0")
	}
}

// TestCloneTakesConstructionWrites: the construction-time writers write
// the arrays in place, which a Fork would share; on a Clone they leave the
// original as it was.
func TestCloneTakesConstructionWrites(t *testing.T) {
	c := buildTiny(t)
	before := c.Clone()
	cl := c.Clone()
	cl.AddRow()
	cl.AddPin(cl.AddCell(0, 3), cl.AddNet("more"), 1, Top)
	cl.AddPin(1, 0, 2, Bottom)
	if !reflect.DeepEqual(c, before) {
		t.Fatal("construction writes on a clone reached the original")
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNetBBox(t *testing.T) {
	c := buildTiny(t)
	bb := c.NetBBox(0) // pins at (2, row0) and (4, row1)
	if bb.MinX != 2 || bb.MaxX != 4 || bb.MinY != 0 || bb.MaxY != 1 {
		t.Fatalf("bbox = %v", bb)
	}
}

func TestComputeStats(t *testing.T) {
	c := buildTiny(t)
	c.InsertFeedthrough(0, 8, 0)
	c.AddFakePin(1, 3, 0, Top)
	s := c.ComputeStats()
	if s.Rows != 2 || s.Cells != 4 || s.Feeds != 1 || s.Nets != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Pins != 4 { // regular pins only
		t.Fatalf("stats.Pins = %d, want 4", s.Pins)
	}
	if s.TotalPin != 6 { // + feedthrough pin + fake pin
		t.Fatalf("stats.TotalPin = %d, want 6", s.TotalPin)
	}
	if s.MaxDeg != 3 { // net 0 gained the ft pin
		t.Fatalf("stats.MaxDeg = %d", s.MaxDeg)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	check := func(name string, corrupt func(c *Circuit)) {
		c := buildTiny(t)
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted circuit", name)
		}
	}
	check("pin-x-desync", func(c *Circuit) { c.Pins[0].X = 99 })
	check("pin-row-desync", func(c *Circuit) { c.Pins[0].Row = 1 })
	check("cell-overlap", func(c *Circuit) { c.Cells[1].X = 3 })
	check("cell-zero-width", func(c *Circuit) { c.Cells[0].Width = 0 })
	check("net-dangling-pin", func(c *Circuit) { SetNetPins(c, 0, append(c.NetPins(0), 999)) })
	check("pin-wrong-net", func(c *Circuit) { c.Pins[0].Net = 1 })
	check("cell-wrong-row", func(c *Circuit) { c.Cells[0].Row = 1 })
	check("pin-bad-row", func(c *Circuit) { c.Pins[0].Row = 7; c.Cells[0].Row = 7 })
	// The int32 room: buildTiny's two nets each span both rows, so a route
	// inserts at most 3·1·2 feedthroughs per net, 12 of width 2 in all.
	const limit = MaxCoord - 12*2
	check("cell-negative-x", func(c *Circuit) { c.Cells[0].X = -1; c.Pins[0].X = 1 })
	check("cell-past-room", func(c *Circuit) { c.Cells[3].X = limit - 8 + 1; c.Pins[3].X = limit - 8 + 4 })
	check("feed-width-negative", func(c *Circuit) { c.FeedWidth = -2 })
	check("feed-width-past-room", func(c *Circuit) { c.FeedWidth = MaxCoord / 12 })
	c := buildTiny(t)
	c.Cells[3].X, c.Pins[3].X = limit-8, limit-8+3
	if err := c.Validate(); err != nil {
		t.Errorf("cell ending at the limit %d rejected: %v", limit, err)
	}
}

func TestSideString(t *testing.T) {
	if Bottom.String() != "bottom" || Top.String() != "top" || Both.String() != "both" {
		t.Fatal("side names wrong")
	}
	if Side(9).String() == "" {
		t.Fatal("unknown side should still format")
	}
}

// TestPinStaysSmall pins the size of the pin table every route copies once
// (Fork's copy-out at the first insertion) and every stage reads: 24 bytes a
// pin, five int32 fields, the side and the fake flag (28 with an ID, 56 with
// int fields).
func TestPinStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(Pin{}); size > 24 {
		t.Fatalf("Pin is %d bytes, at most 24 expected", size)
	}
}

// TestCellStaysSmall pins the size of the cell table every route regrows at
// feedthrough insertion: 16 bytes a cell, three int32 fields and the feed
// flag (40 with the pin list's header, 64 with an ID and int fields).
func TestCellStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(Cell{}); size > 16 {
		t.Fatalf("Cell is %d bytes, at most 16 expected", size)
	}
}

// TestNetStaysSmall pins the size of a net: nothing, since its pins and its
// name live in the circuit's flat arrays (40 bytes with the name and the pin
// list's headers, 48 with an ID).
func TestNetStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(Net{}); size > 0 {
		t.Fatalf("Net is %d bytes, at most 0 expected", size)
	}
}

// TestRowStaysSmall pins the size of a row: nothing, since its cell list
// lives in the circuit's flat arrays (24 bytes with the list's header, 32
// with an ID).
func TestRowStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(Row{}); size > 0 {
		t.Fatalf("Row is %d bytes, at most 0 expected", size)
	}
}

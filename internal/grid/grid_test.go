package grid

import (
	"testing"
	"testing/quick"

	"parroute/internal/geom"
	"parroute/internal/rng"
)

func TestNewShape(t *testing.T) {
	g := New(10, 160, 16)
	if g.Rows != 10 || g.Channels != 11 || g.Cols != 10 || g.ColWidth != 16 {
		t.Fatalf("shape: %+v", g)
	}
	if len(g.DensCounts()) != 11*10 || len(g.FtCounts()) != 10*10 {
		t.Fatalf("array sizes: %d, %d", len(g.DensCounts()), len(g.FtCounts()))
	}
	// Width rounds up.
	g = New(2, 161, 16)
	if g.Cols != 11 {
		t.Fatalf("cols = %d, want 11", g.Cols)
	}
	// Degenerate width still yields one column.
	g = New(2, 0, 16)
	if g.Cols != 1 {
		t.Fatalf("cols = %d, want 1", g.Cols)
	}
}

func TestNewPanicsOnBadColWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("colWidth 0 should panic")
		}
	}()
	New(2, 100, 0)
}

func TestColOfClamps(t *testing.T) {
	g := New(2, 160, 16)
	if g.ColOf(-5) != 0 {
		t.Fatal("negative x should clamp to column 0")
	}
	if g.ColOf(100000) != g.Cols-1 {
		t.Fatal("huge x should clamp to the last column")
	}
	if g.ColOf(0) != 0 || g.ColOf(15) != 0 || g.ColOf(16) != 1 {
		t.Fatal("column mapping wrong")
	}
	if g.ColCenter(1) != 24 {
		t.Fatalf("center of column 1 = %d", g.ColCenter(1))
	}
}

func TestBoundaryPinColumns(t *testing.T) {
	// coreWidth 160 with colWidth 16 is a whole number of columns, so a
	// pin exactly on the right core edge computes 160/16 == 10 == Cols —
	// one past the last column. ColOf must clamp it into column 9.
	g := New(2, 160, 16)
	if got := g.ColOf(160); got != g.Cols-1 {
		t.Fatalf("right-edge pin maps to column %d, want %d", got, g.Cols-1)
	}
	// A non-multiple core width rounds Cols up, so the right edge lands
	// inside the last column without clamping.
	g = New(2, 161, 16)
	if got := g.ColOf(161); got != g.Cols-1 {
		t.Fatalf("right-edge pin maps to column %d, want %d", got, g.Cols-1)
	}
	// Left edge and out-of-core pins.
	if g.ColOf(0) != 0 || g.ColOf(-1) != 0 || g.ColOf(10000) != g.Cols-1 {
		t.Fatal("edge pins not clamped")
	}
}

func TestVertAPIsClampBoundaryColumn(t *testing.T) {
	// The vertical APIs take raw columns; a right-edge pin's unclamped
	// column (== Cols) must not spill into the next row's counters or
	// index out of range.
	g := New(3, 160, 16)
	last := g.Cols - 1
	g.AddVert(0, 1, g.Cols, 1) // one past the last column
	if g.FtDemand(0, last) != 1 || g.FtDemand(1, last) != 1 {
		t.Fatalf("boundary AddVert landed at demand %d/%d, want 1/1",
			g.FtDemand(0, last), g.FtDemand(1, last))
	}
	if g.FtDemand(0, 0) != 0 {
		t.Fatal("boundary AddVert bled into column 0")
	}
	if c := g.VertAddCost(0, 1, g.Cols, 10); c != 2*(10+2) {
		t.Fatalf("boundary VertAddCost = %d, want %d", c, 2*(10+2))
	}
	// Moving from the clamped boundary column to itself is a no-op.
	if c := g.VertMoveCost(0, 1, g.Cols, last); c != 0 {
		t.Fatalf("clamped-identity VertMoveCost = %d, want 0", c)
	}
	g.MoveVert(0, 1, g.Cols, 0)
	if g.FtDemand(0, last) != 0 || g.FtDemand(0, 0) != 1 {
		t.Fatal("boundary MoveVert did not move the run from the edge column")
	}
}

func TestAddHorizAndDensity(t *testing.T) {
	g := New(2, 160, 16)
	g.AddHoriz(1, geom.NewInterval(0, 47), 1)
	for col := 0; col < 3; col++ {
		if g.Density(1, col) != 1 {
			t.Fatalf("col %d density = %d", col, g.Density(1, col))
		}
	}
	if g.Density(1, 3) != 0 || g.Density(0, 0) != 0 {
		t.Fatal("density bled into wrong cells")
	}
	g.AddHoriz(1, geom.NewInterval(0, 47), -1)
	if !allZero(g.DensCounts()) {
		t.Fatal("remove did not cancel add")
	}
	// Empty interval is a no-op.
	g.AddHoriz(1, geom.Interval{Lo: 1, Hi: 0}, 1)
	if !allZero(g.DensCounts()) {
		t.Fatal("empty interval changed the grid")
	}
}

func TestAddVertAndDemand(t *testing.T) {
	g := New(5, 160, 16)
	g.AddVert(1, 3, 2, 1)
	for row := 1; row <= 3; row++ {
		if g.FtDemand(row, 2) != 1 {
			t.Fatalf("row %d demand = %d", row, g.FtDemand(row, 2))
		}
	}
	if g.FtDemand(0, 2) != 0 || g.FtDemand(4, 2) != 0 || g.FtDemand(2, 1) != 0 {
		t.Fatal("demand bled")
	}
	total := int32(0)
	for _, v := range g.FtCounts() {
		total += v
	}
	if total != 3 {
		t.Fatalf("total ft = %d", total)
	}
}

func TestHorizAddCost(t *testing.T) {
	g := New(2, 160, 16)
	iv := geom.NewInterval(0, 31) // 2 columns
	if c := g.HorizAddCost(0, iv); c != 2 {
		t.Fatalf("empty-grid cost = %d, want 2 (2 cols x (2*0+1))", c)
	}
	g.AddHoriz(0, iv, 1)
	if c := g.HorizAddCost(0, iv); c != 6 {
		t.Fatalf("cost at density 1 = %d, want 6 (2 cols x 3)", c)
	}
	if c := g.HorizAddCost(0, geom.Interval{Lo: 1, Hi: 0}); c != 0 {
		t.Fatalf("empty interval cost = %d", c)
	}
}

func TestVertAddCost(t *testing.T) {
	g := New(5, 160, 16)
	if c := g.VertAddCost(1, 3, 2, 10); c != 30 {
		t.Fatalf("cost = %d, want 30 (3 rows x ftBase)", c)
	}
	g.AddVert(1, 3, 2, 1)
	if c := g.VertAddCost(1, 3, 2, 10); c != 36 {
		t.Fatalf("cost = %d, want 36 (3 x (10 + 2*1))", c)
	}
}

func TestCloneAndMerge(t *testing.T) {
	a := New(3, 160, 16)
	a.AddHoriz(0, geom.NewInterval(0, 31), 1)
	a.AddVert(0, 1, 3, 1)
	b := a.Clone()
	b.AddHoriz(0, geom.NewInterval(0, 31), 1)
	if a.Density(0, 0) != 1 {
		t.Fatal("clone shares storage with original")
	}
	// Grids merge by delta: b's whole table, in sparse form, added into a.
	if err := a.ApplyDelta(b.AppendDelta(nil, make([]int32, b.TableLen()))); err != nil {
		t.Fatal(err)
	}
	if a.Density(0, 0) != 3 { // 1 + (1+1)
		t.Fatalf("merged density = %d", a.Density(0, 0))
	}
	if a.FtDemand(0, 3) != 2 {
		t.Fatalf("merged demand = %d", a.FtDemand(0, 3))
	}
	if b.Density(0, 0) != 2 || b.FtDemand(0, 3) != 1 {
		t.Fatal("merging changed the merged-in grid")
	}
}

// TestMergeShapeMismatch: the delta of a grid with more rows names counters
// past the end of a smaller grid's table, and the merge is refused whole.
func TestMergeShapeMismatch(t *testing.T) {
	big := New(4, 160, 16)
	big.AddHoriz(0, geom.NewInterval(0, 31), 1)
	big.AddVert(3, 3, 2, 1)
	small := New(3, 160, 16)
	if err := small.ApplyDelta(big.AppendDelta(nil, make([]int32, big.TableLen()))); err == nil {
		t.Fatal("shape mismatch should be reported")
	}
	if !allZero(small.DensCounts()) || !allZero(small.FtCounts()) {
		t.Fatal("a refused merge wrote to the grid")
	}
}

func allZero(counts []int32) bool {
	for _, v := range counts {
		if v != 0 {
			return false
		}
	}
	return true
}

func TestAddRemoveInverseProperty(t *testing.T) {
	// Random adds followed by matching removes always return to zero.
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		g := New(6, 320, 16)
		type op struct {
			ch    int
			iv    geom.Interval
			vr0   int
			vr1   int
			vcol  int
			horiz bool
		}
		var ops []op
		for i := 0; i < 50; i++ {
			if r.Bool() {
				o := op{horiz: true, ch: r.Intn(7), iv: geom.NewInterval(r.Intn(320), r.Intn(320))}
				g.AddHoriz(o.ch, o.iv, 1)
				ops = append(ops, o)
			} else {
				lo := r.Intn(6)
				hi := lo + r.Intn(6-lo)
				o := op{vr0: lo, vr1: hi, vcol: r.Intn(g.Cols)}
				g.AddVert(o.vr0, o.vr1, o.vcol, 1)
				ops = append(ops, o)
			}
		}
		for _, o := range ops {
			if o.horiz {
				g.AddHoriz(o.ch, o.iv, -1)
			} else {
				g.AddVert(o.vr0, o.vr1, o.vcol, -1)
			}
		}
		return allZero(g.DensCounts()) && allZero(g.FtCounts())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestReserveAllocatesCoveredSlabsOnly: Reserve creates the slabs of the
// channels and rows it names — so goroutines that then write different
// channels of one slab find it there — and leaves the rest of the grid as
// lazy as a write does.
func TestReserveAllocatesCoveredSlabsOnly(t *testing.T) {
	g := New(40, 320, 16) // 41 channels: dens slabs 0..5, ft slabs 0..4
	g.Reserve(10, 17)     // channels 10..17 and rows 10..17 lie in slabs 1 and 2
	for b := range g.dens.slabs {
		if want := b == 1 || b == 2; (g.dens.slabs[b] != nil) != want {
			t.Fatalf("dens slab %d allocated: %v, want %v", b, g.dens.slabs[b] != nil, want)
		}
	}
	for b := range g.ft.slabs {
		if want := b == 1 || b == 2; (g.ft.slabs[b] != nil) != want {
			t.Fatalf("ft slab %d allocated: %v, want %v", b, g.ft.slabs[b] != nil, want)
		}
	}
	g.Reserve(40, 40) // the last channel has no row beside it
	if g.dens.slabs[5] == nil || g.ft.slabs[4] != nil {
		t.Fatal("reserving the top channel must allocate its density slab and no feedthrough slab")
	}
	if !allZero(g.DensCounts()) || !allZero(g.FtCounts()) {
		t.Fatal("reserved slabs are not zero")
	}
}

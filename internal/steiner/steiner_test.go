package steiner

import (
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/geom"
)

// chainCircuit builds one row-per-pin circuit with a single net whose pins
// sit at the given (x, row) positions.
func chainCircuit(t *testing.T, pts []geom.Point) (*circuit.Circuit, int) {
	t.Helper()
	maxRow := 0
	for _, p := range pts {
		if p.Y > maxRow {
			maxRow = p.Y
		}
	}
	c := &circuit.Circuit{Name: "t", CellHeight: 10, FeedWidth: 2}
	for r := 0; r <= maxRow; r++ {
		c.AddRow()
		c.AddCell(r, 1000)
	}
	n := c.AddNet("n")
	for _, p := range pts {
		cellID := int(c.RowCells(p.Y)[0])
		c.AddPin(cellID, n, p.X, circuit.Bottom)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c, n
}

func TestBuildNetSmall(t *testing.T) {
	c, n := chainCircuit(t, []geom.Point{{X: 10, Y: 0}, {X: 20, Y: 1}, {X: 30, Y: 0}})
	segs := BuildNet(c, n)
	if len(segs) != 2 {
		t.Fatalf("%d segments for 3 pins", len(segs))
	}
	for _, s := range segs {
		if s.P.Y > s.Q.Y {
			t.Fatalf("segment not normalized: %+v", s)
		}
		if s.Flat() && s.P.X > s.Q.X {
			t.Fatalf("flat segment not left-to-right: %+v", s)
		}
		if s.Net != n {
			t.Fatalf("segment net = %d", s.Net)
		}
	}
}

func TestBuildNetDegenerate(t *testing.T) {
	c, n := chainCircuit(t, []geom.Point{{X: 10, Y: 0}})
	if segs := BuildNet(c, n); segs != nil {
		t.Fatalf("single-pin net produced %d segments", len(segs))
	}
	empty := c.AddNet("empty")
	if segs := BuildNet(c, empty); segs != nil {
		t.Fatal("empty net produced segments")
	}
}

func TestVerticalCostPrefersHorizontal(t *testing.T) {
	// Pins: (0,0), (100,0), (0,1). The tree must connect (100,0) to (0,0)
	// horizontally rather than hanging it off row 1.
	c, n := chainCircuit(t, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 1}})
	segs := BuildNet(c, n)
	crossRow := 0
	for _, s := range segs {
		if !s.Flat() {
			crossRow++
			if s.P.X != 0 || s.Q.X != 0 {
				t.Fatalf("cross-row edge should join the x=0 pins, got %+v", s)
			}
		}
	}
	if crossRow != 1 {
		t.Fatalf("%d cross-row edges, want 1", crossRow)
	}
}

func TestSegmentsSpanAllPins(t *testing.T) {
	c := gen.Small(2)
	for n := range c.Nets {
		segs := BuildNet(c, n)
		pins := c.NetPins(n)
		if len(pins) < 2 {
			continue
		}
		if len(segs) != len(pins)-1 {
			t.Fatalf("net %d: %d segments for %d pins", n, len(segs), len(pins))
		}
		// Union-find over pin IDs through segments: must connect all.
		parent := map[int]int{}
		var find func(int) int
		find = func(x int) int {
			if parent[x] == 0 {
				parent[x] = x + 1 // store id+1 to distinguish from missing
			}
			for parent[x] != x+1 {
				x = parent[x] - 1
			}
			return x
		}
		union := func(a, b int) { parent[find(a)] = find(b) + 1 }
		for _, s := range segs {
			union(s.PinP, s.PinQ)
		}
		root := find(int(pins[0]))
		for _, pid := range pins[1:] {
			if find(int(pid)) != root {
				t.Fatalf("net %d not spanned by its segments", n)
			}
		}
	}
}

func TestLargeNetFastPath(t *testing.T) {
	// Build a net just over the threshold and verify the chain structure
	// spans everything.
	pts := make([]geom.Point, LargeNetThreshold+10)
	rows := 8
	for i := range pts {
		pts[i] = geom.Point{X: (i * 37) % 900, Y: i % rows}
	}
	c, n := chainCircuit(t, pts)
	segs := BuildNet(c, n)
	if len(segs) != len(pts)-1 {
		t.Fatalf("%d segments for %d pins", len(segs), len(pts))
	}
	// Connectivity.
	parent := map[int]int{}
	var find func(int) int
	find = func(x int) int {
		if parent[x] == 0 {
			parent[x] = x + 1
		}
		for parent[x] != x+1 {
			x = parent[x] - 1
		}
		return x
	}
	for _, s := range segs {
		parent[find(s.PinP)] = find(s.PinQ) + 1
	}
	root := find(int(c.NetPins(n)[0]))
	for _, pid := range c.NetPins(n) {
		if find(int(pid)) != root {
			t.Fatal("large net not spanned")
		}
	}
	// Cross-row edges should be one per populated-row transition.
	cross := 0
	for _, s := range segs {
		if !s.Flat() {
			cross++
		}
	}
	if cross != rows-1 {
		t.Fatalf("%d cross-row edges, want %d", cross, rows-1)
	}
}

func TestNewSegmentNormalization(t *testing.T) {
	s := NewSegment(3, 10, geom.Point{X: 5, Y: 2}, 11, geom.Point{X: 1, Y: 1})
	if s.P.Y != 1 || s.Q.Y != 2 || s.PinP != 11 || s.PinQ != 10 {
		t.Fatalf("not normalized: %+v", s)
	}
	if s.BendX != s.P.X {
		t.Fatalf("initial bend should be at the lower endpoint, got %d", s.BendX)
	}
	flat := NewSegment(3, 10, geom.Point{X: 9, Y: 2}, 11, geom.Point{X: 1, Y: 2})
	if flat.P.X != 1 || flat.Q.X != 9 {
		t.Fatalf("flat not left-to-right: %+v", flat)
	}
}

func TestFakePinBendInheritance(t *testing.T) {
	// A segment between a real pin and a fake pin must start with its
	// bend at the fake pin (the crossing column).
	c := &circuit.Circuit{Name: "t", CellHeight: 10, FeedWidth: 2}
	c.AddRow()
	c.AddRow()
	c.AddRow()
	cell := c.AddCell(0, 100)
	c.AddCell(1, 100)
	c.AddCell(2, 100)
	n := c.AddNet("n")
	c.AddPin(cell, n, 10, circuit.Bottom) // (10, row 0)
	c.AddFakePin(n, 77, 2, circuit.Bottom)
	segs := BuildNet(c, n)
	if len(segs) != 1 {
		t.Fatalf("%d segments", len(segs))
	}
	if segs[0].BendX != 77 {
		t.Fatalf("bend at %d, want the fake pin's 77", segs[0].BendX)
	}
}

func TestBuildAllNets(t *testing.T) {
	c := gen.Tiny(3)
	all := Build(c)
	if len(all) != len(c.Nets) {
		t.Fatalf("Build returned %d nets", len(all))
	}
	total, want := 0, 0
	for _, segs := range all {
		total += len(segs)
	}
	for n := range c.Nets {
		if d := len(c.NetPins(n)); d >= 2 {
			want += d - 1
		}
	}
	if total != want {
		t.Fatalf("segment count %d, want %d", total, want)
	}
}

// Build computes the Steiner segments of every net in the circuit, indexed
// by net ID; single-pin and empty nets yield none.
func Build(c *circuit.Circuit) [][]Segment {
	out := make([][]Segment, len(c.Nets))
	var b Builder
	for n := range c.Nets {
		if segs := b.AppendNet(nil, c, n); len(segs) > 0 {
			out[n] = segs
		}
	}
	return out
}

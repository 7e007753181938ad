package circuit_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/rng"
)

// refValidate is Validate as it was before its membership checks became
// marks: the same checks in the same order, with a scan of the row's cell
// list for each cell and of the net's pin list for each pin (quadratic on a
// long row or a large net). It is the reference TestValidateMatchesReference
// holds Validate to.
func refValidate(c *circuit.Circuit) error {
	for r := range c.Rows {
		x := -1 << 60
		for _, cid := range c.RowCells(r) {
			if cid < 0 || int(cid) >= len(c.Cells) {
				return fmt.Errorf("row %d references cell %d out of range", r, cid)
			}
			cell := &c.Cells[cid]
			if int(cell.Row) != r {
				return fmt.Errorf("cell %d in row %d claims row %d", cid, r, cell.Row)
			}
			if int(cell.X) < x {
				return fmt.Errorf("cell %d at x=%d overlaps previous cell ending at %d in row %d",
					cid, cell.X, x, r)
			}
			if cell.Width <= 0 {
				return fmt.Errorf("cell %d has non-positive width %d", cid, cell.Width)
			}
			x = int(cell.X) + int(cell.Width)
		}
	}
	for i := range c.Cells {
		cell := &c.Cells[i]
		if cell.Row < 0 || int(cell.Row) >= len(c.Rows) {
			return fmt.Errorf("cell %d has row %d out of range", i, cell.Row)
		}
		if !slices.Contains(c.RowCells(int(cell.Row)), int32(i)) {
			return fmt.Errorf("cell %d missing from its row %d", i, cell.Row)
		}
		for _, pid := range c.CellPins(i) {
			if pid < 0 || int(pid) >= len(c.Pins) {
				return fmt.Errorf("cell %d references pin %d out of range", i, pid)
			}
			if int(c.Pins[pid].Cell) != i {
				return fmt.Errorf("pin %d on cell %d claims cell %d", pid, i, c.Pins[pid].Cell)
			}
		}
	}
	for i := range c.Pins {
		p := &c.Pins[i]
		if p.Row < 0 || int(p.Row) >= len(c.Rows) {
			return fmt.Errorf("pin %d has row %d out of range", i, p.Row)
		}
		if p.Side > circuit.Both {
			return fmt.Errorf("pin %d has side %d outside {bottom, top, both}", i, p.Side)
		}
		if p.Cell != circuit.NoCell {
			cell := &c.Cells[p.Cell]
			if int(p.X) != int(cell.X)+int(p.Offset) {
				return fmt.Errorf("pin %d at x=%d but cell %d at x=%d with offset %d",
					i, p.X, p.Cell, cell.X, p.Offset)
			}
			if p.Row != cell.Row {
				return fmt.Errorf("pin %d row %d disagrees with cell %d row %d",
					i, p.Row, p.Cell, cell.Row)
			}
		}
		if p.Net != circuit.NoNet {
			if p.Net < 0 || int(p.Net) >= len(c.Nets) {
				return fmt.Errorf("pin %d has net %d out of range", i, p.Net)
			}
			if !slices.Contains(c.NetPins(int(p.Net)), int32(i)) {
				return fmt.Errorf("pin %d missing from its net %d", i, p.Net)
			}
		}
	}
	for i := range c.Nets {
		for _, pid := range c.NetPins(i) {
			if pid < 0 || int(pid) >= len(c.Pins) {
				return fmt.Errorf("net %d references pin %d out of range", i, pid)
			}
			if int(c.Pins[pid].Net) != i {
				return fmt.Errorf("pin %d in net %d claims net %d", pid, i, c.Pins[pid].Net)
			}
		}
	}
	return c.CheckRoom()
}

// corruptions are single-field edits of a valid circuit, each at an index
// drawn from r: list membership (a cell in no row, in two rows or twice in
// its own; a pin absent from its net, listed under another or twice),
// claims that disagree with the lists, out-of-range ids on both sides of
// every reference, positions and widths, and a side past Both.
var corruptions = []struct {
	name string
	edit func(c *circuit.Circuit, r *rng.RNG)
}{
	{"none", func(*circuit.Circuit, *rng.RNG) {}},
	{"cell-in-no-row", func(c *circuit.Circuit, r *rng.RNG) {
		if row := r.Intn(len(c.Rows)); len(c.RowCells(row)) > 0 {
			i := r.Intn(len(c.RowCells(row)))
			circuit.SetRowCells(c, row, slices.Delete(slices.Clone(c.RowCells(row)), i, i+1))
		}
	}},
	{"cell-in-two-rows", func(c *circuit.Circuit, r *rng.RNG) {
		row := r.Intn(len(c.Rows))
		circuit.SetRowCells(c, row, append(c.RowCells(row), int32(r.Intn(len(c.Cells)))))
	}},
	{"cell-twice-in-row", func(c *circuit.Circuit, r *rng.RNG) {
		if row := r.Intn(len(c.Rows)); len(c.RowCells(row)) > 0 {
			i := r.Intn(len(c.RowCells(row)))
			circuit.SetRowCells(c, row, slices.Insert(c.RowCells(row), i, c.RowCells(row)[i]))
		}
	}},
	{"cell-claims-other-row", func(c *circuit.Circuit, r *rng.RNG) {
		c.Cells[r.Intn(len(c.Cells))].Row = int32(r.Intn(len(c.Rows)))
	}},
	{"cell-row-out-of-range", func(c *circuit.Circuit, r *rng.RNG) {
		c.Cells[r.Intn(len(c.Cells))].Row = int32(len(c.Rows) * (1 - 2*r.Intn(2)))
	}},
	{"row-cell-out-of-range", func(c *circuit.Circuit, r *rng.RNG) {
		row := r.Intn(len(c.Rows))
		circuit.SetRowCells(c, row, slices.Insert(c.RowCells(row), r.Intn(len(c.RowCells(row))+1), int32(len(c.Cells)*(1-2*r.Intn(2)))))
	}},
	{"cell-pin-out-of-range", func(c *circuit.Circuit, r *rng.RNG) {
		cell := r.Intn(len(c.Cells))
		circuit.SetCellPins(c, cell, append(c.CellPins(cell), int32(len(c.Pins)*(1-2*r.Intn(2)))))
	}},
	{"cell-lists-other-pin", func(c *circuit.Circuit, r *rng.RNG) {
		cell := r.Intn(len(c.Cells))
		circuit.SetCellPins(c, cell, append(c.CellPins(cell), int32(r.Intn(len(c.Pins)))))
	}},
	{"pin-absent-from-net", func(c *circuit.Circuit, r *rng.RNG) {
		if net := r.Intn(len(c.Nets)); len(c.NetPins(net)) > 0 {
			i := r.Intn(len(c.NetPins(net)))
			circuit.SetNetPins(c, net, slices.Delete(slices.Clone(c.NetPins(net)), i, i+1))
		}
	}},
	{"pin-under-other-net", func(c *circuit.Circuit, r *rng.RNG) {
		net := r.Intn(len(c.Nets))
		circuit.SetNetPins(c, net, slices.Insert(c.NetPins(net), r.Intn(len(c.NetPins(net))+1), int32(r.Intn(len(c.Pins)))))
	}},
	{"pin-moved-to-other-net", func(c *circuit.Circuit, r *rng.RNG) {
		pid := int32(r.Intn(len(c.Pins)))
		for n := range c.Nets {
			circuit.SetNetPins(c, n, slices.DeleteFunc(slices.Clone(c.NetPins(n)), func(p int32) bool { return p == pid }))
		}
		net := r.Intn(len(c.Nets))
		circuit.SetNetPins(c, net, append(c.NetPins(net), pid))
	}},
	{"pin-twice-in-net", func(c *circuit.Circuit, r *rng.RNG) { // accepted, by both
		if net := r.Intn(len(c.Nets)); len(c.NetPins(net)) > 0 {
			i := r.Intn(len(c.NetPins(net)))
			circuit.SetNetPins(c, net, slices.Insert(c.NetPins(net), i, c.NetPins(net)[i]))
		}
	}},
	{"pin-claims-other-net", func(c *circuit.Circuit, r *rng.RNG) {
		c.Pins[r.Intn(len(c.Pins))].Net = int32(r.Intn(len(c.Nets)+1) - 1) // NoNet included
	}},
	{"pin-net-out-of-range", func(c *circuit.Circuit, r *rng.RNG) {
		c.Pins[r.Intn(len(c.Pins))].Net = int32(len(c.Nets)*(1-2*r.Intn(2)) - r.Intn(2))
	}},
	{"net-pin-out-of-range", func(c *circuit.Circuit, r *rng.RNG) {
		net := r.Intn(len(c.Nets))
		circuit.SetNetPins(c, net, slices.Insert(c.NetPins(net), r.Intn(len(c.NetPins(net))+1), int32(len(c.Pins)*(1-2*r.Intn(2)))))
	}},
	{"pin-row-out-of-range", func(c *circuit.Circuit, r *rng.RNG) {
		c.Pins[r.Intn(len(c.Pins))].Row = int32(len(c.Rows) * (1 - 2*r.Intn(2)))
	}},
	{"pin-x", func(c *circuit.Circuit, r *rng.RNG) { c.Pins[r.Intn(len(c.Pins))].X += int32(1 - 2*r.Intn(2)) }},
	{"cell-x", func(c *circuit.Circuit, r *rng.RNG) { c.Cells[r.Intn(len(c.Cells))].X += int32(1 - 2*r.Intn(2)) }},
	{"cell-width", func(c *circuit.Circuit, r *rng.RNG) { c.Cells[r.Intn(len(c.Cells))].Width = int32(r.Intn(3) - 1) }},
	{"pin-side", func(c *circuit.Circuit, r *rng.RNG) { c.Pins[r.Intn(len(c.Pins))].Side = circuit.Side(3 + r.Intn(253)) }},
}

// TestValidateMatchesReference: on random gen circuits, unchanged and with
// one, two or three corruptions applied, Validate returns exactly
// refValidate's error, or nil with it, so the marks change neither what is
// refused nor which problem is reported first.
func TestValidateMatchesReference(t *testing.T) {
	trials, refused := 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		base, err := gen.Generate(gen.Config{Rows: 2 + int(seed%5), Cells: 40 + 10*int(seed), Nets: 30 + 5*int(seed), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		for trial := 0; trial < 60; trial++ {
			c := base.Clone()
			var names []string
			for k := trial%3 + 1; k > 0; k-- {
				i := r.Intn(len(corruptions))
				names = append(names, corruptions[i].name)
				corruptions[i].edit(c, r)
			}
			got, want := c.Validate(), refValidate(c)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d trial %d %v: Validate %v, reference %v", seed, trial, names, got, want)
			}
			if trials++; want != nil {
				refused++
			}
		}
	}
	if refused == 0 || refused == trials {
		t.Fatalf("the reference refused %d of %d corrupted circuits: the table exercises one outcome only", refused, trials)
	}
}

// lineCircuit is one row of n unit cells with one pin each, all on one
// net: the shape on which scanning the row's or the net's list per member
// is quadratic.
func lineCircuit(n int) *circuit.Circuit {
	c := &circuit.Circuit{Name: "line", CellHeight: 10, FeedWidth: 2}
	c.AddRow()
	net := c.AddNet("n")
	for i := 0; i < n; i++ {
		c.AddPin(c.AddCell(0, 1), net, 0, circuit.Bottom)
	}
	return c
}

// TestValidateLinearOnOneRowOneNet validates one row and one net of 2^18
// cells (48.8 s when each membership check scanned the list, DESIGN §9) and
// holds the time to at most 10× that of 2^16: linear is 4×, quadratic 16×.
func TestValidateLinearOnOneRowOneNet(t *testing.T) {
	best := func(c *circuit.Circuit) time.Duration {
		d := time.Duration(1 << 62)
		for range 3 {
			start := time.Now()
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			d = min(d, time.Since(start))
		}
		return d
	}
	small, large := best(lineCircuit(1<<16)), best(lineCircuit(1<<18))
	t.Logf("Validate, one row and one net: 2^16 cells %v, 2^18 cells %v", small, large)
	if large > 10*small {
		t.Errorf("Validate of 2^18 cells took %v, more than 10× the %v of 2^16: not linear", large, small)
	}
}

// BenchmarkValidate times Validate on synth.100k and on one row and one
// net of 2^16 cells.
func BenchmarkValidate(b *testing.B) {
	synth, err := gen.Benchmark("synth.100k", 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		c    *circuit.Circuit
	}{{"synth.100k", synth}, {"line-2^16", lineCircuit(1 << 16)}} {
		b.Run(bc.name, func(b *testing.B) {
			for range b.N {
				if err := bc.c.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package parallel

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/partition"
	"parroute/internal/route"
)

// refCircuit is a circuit's id lists and net names in the slice-of-slices
// form the records held before the lists moved into the circuit's flat
// arrays, each built by the rule its old writer followed.
// TestListsMatchSliceOfSlices holds every list the flat arrays serve to it,
// element for element and in order.
type refCircuit struct {
	rows, cells, nets [][]int32
	names             []string // nil: not compared
}

// refConstructed is what construction left: gen and the one-at-a-time
// AddCell and AddPin append, so each row lists its cells, and each cell
// and each net its pins, in ID order.
func refConstructed(c *circuit.Circuit) refCircuit {
	ref := refCircuit{rows: make([][]int32, len(c.Rows)), cells: make([][]int32, len(c.Cells)), nets: make([][]int32, len(c.Nets))}
	for id, cell := range c.Cells {
		ref.rows[cell.Row] = append(ref.rows[cell.Row], int32(id))
	}
	for pid, p := range c.Pins {
		if p.Cell != circuit.NoCell {
			ref.cells[p.Cell] = append(ref.cells[p.Cell], int32(pid))
		}
		if p.Net != circuit.NoNet {
			ref.nets[p.Net] = append(ref.nets[p.Net], int32(pid))
		}
	}
	return ref
}

// refRouted is what feedthrough insertion and step 3 left on a fork of a
// circuit base lists as ref: a row's cells in x order (feedthroughs
// included), a feedthrough cell's one pin, and a net's pins as in base
// followed by the feedthrough pins step 3 bound to it. Binding walks the
// rows in order and matches a row's crossings and pins in x order, with the
// pin ID breaking ties, so a net's binds come by (row, x, ID).
func refRouted(c *circuit.Circuit, base refCircuit) refCircuit {
	ref := refCircuit{rows: make([][]int32, len(c.Rows)), cells: refConstructed(c).cells, nets: make([][]int32, len(c.Nets))}
	for id, cell := range c.Cells {
		ref.rows[cell.Row] = append(ref.rows[cell.Row], int32(id))
	}
	for r := range ref.rows {
		slices.SortFunc(ref.rows[r], func(a, b int32) int { return cmp.Compare(c.Cells[a].X, c.Cells[b].X) })
	}
	var binds []int32
	for pid, p := range c.Pins {
		if p.Cell != circuit.NoCell && c.Cells[p.Cell].Feed && p.Net != circuit.NoNet {
			binds = append(binds, int32(pid))
		}
	}
	slices.SortFunc(binds, func(a, b int32) int {
		pa, pb := &c.Pins[a], &c.Pins[b]
		return cmp.Or(cmp.Compare(pa.Row, pb.Row), cmp.Compare(pa.X, pb.X), cmp.Compare(a, b))
	})
	for n := range ref.nets {
		ref.nets[n] = slices.Clone(base.nets[n])
	}
	for _, pid := range binds {
		n := c.Pins[pid].Net
		ref.nets[n] = append(ref.nets[n], pid)
	}
	return ref
}

// refBlock is the old buildBlockCircuit on base's lists: the block's cells
// re-issued row by row, its pins in base ID order, each cell's and net's
// list mapped in base order, and each net's fake pins after, in spec order.
func refBlock(c *circuit.Circuit, base refCircuit, block partition.RowBlock, fakes []FakePinSpec) refCircuit {
	ref := refCircuit{rows: make([][]int32, len(c.Rows)), nets: make([][]int32, len(c.Nets))}
	newPin, pins := make([]int32, len(c.Pins)), int32(0)
	for pid, p := range c.Pins {
		if p.Cell != circuit.NoCell && block.Contains(int(p.Row)) {
			newPin[pid] = pins
			pins++
		}
	}
	for r := block.Lo; r <= block.Hi; r++ {
		for _, cid := range base.rows[r] {
			ref.rows[r] = append(ref.rows[r], int32(len(ref.cells)))
			var list []int32
			for _, pid := range base.cells[cid] {
				list = append(list, newPin[pid])
			}
			ref.cells = append(ref.cells, list)
		}
	}
	for n := range ref.nets {
		for _, pid := range base.nets[n] {
			if p := &c.Pins[pid]; block.Contains(int(p.Row)) {
				ref.nets[n] = append(ref.nets[n], newPin[pid])
			}
		}
	}
	for i, spec := range fakes {
		ref.nets[spec.Net] = append(ref.nets[spec.Net], pins+int32(i))
	}
	return ref
}

// refFromJSON reads the lists straight off a circuit file: the rows as
// listed, pins numbered cell by cell in file order, and each net's pins in
// that numbering's order.
func refFromJSON(t *testing.T, file []byte) refCircuit {
	var doc struct {
		Rows  [][]int32
		Cells []struct{ Pins []struct{ Net int } }
		Nets  []struct{ Name string }
	}
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	ref := refCircuit{rows: doc.Rows, cells: make([][]int32, len(doc.Cells)), nets: make([][]int32, len(doc.Nets))}
	pid := int32(0)
	for i, cell := range doc.Cells {
		for _, p := range cell.Pins {
			ref.cells[i] = append(ref.cells[i], pid)
			if p.Net != circuit.NoNet {
				ref.nets[p.Net] = append(ref.nets[p.Net], pid)
			}
			pid++
		}
	}
	for _, n := range doc.Nets {
		ref.names = append(ref.names, n.Name)
	}
	return ref
}

// reverseCells renumbers the cells of a circuit file back to front, so
// every row lists its cells out of ID order.
func reverseCells(t *testing.T, file []byte) []byte {
	var doc map[string]json.RawMessage
	var rows [][]int
	var cells []json.RawMessage
	if err := errors.Join(json.Unmarshal(file, &doc), json.Unmarshal(doc["rows"], &rows), json.Unmarshal(doc["cells"], &cells)); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		for i := range row {
			row[i] = len(cells) - 1 - row[i]
		}
	}
	slices.Reverse(cells)
	var err error
	if doc["rows"], err = json.Marshal(rows); err != nil {
		t.Fatal(err)
	}
	if doc["cells"], err = json.Marshal(cells); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkLists fails unless c serves exactly ref's lists.
func checkLists(t *testing.T, name string, c *circuit.Circuit, ref refCircuit) {
	t.Helper()
	if len(ref.rows) != len(c.Rows) || len(ref.cells) != len(c.Cells) || len(ref.nets) != len(c.Nets) {
		t.Fatalf("%s: %d rows %d cells %d nets, reference %d %d %d", name,
			len(c.Rows), len(c.Cells), len(c.Nets), len(ref.rows), len(ref.cells), len(ref.nets))
	}
	for r, want := range ref.rows {
		if !slices.Equal(c.RowCells(r), want) {
			t.Fatalf("%s: row %d lists cells %v, reference %v", name, r, c.RowCells(r), want)
		}
	}
	for id, want := range ref.cells {
		if !slices.Equal(c.CellPins(id), want) {
			t.Fatalf("%s: cell %d lists pins %v, reference %v", name, id, c.CellPins(id), want)
		}
	}
	for n, want := range ref.nets {
		if !slices.Equal(c.NetPins(n), want) {
			t.Fatalf("%s: net %d lists pins %v, reference %v", name, n, c.NetPins(n), want)
		}
	}
	for n, want := range ref.names {
		if c.NetName(n) != want {
			t.Fatalf("%s: net %d is named %q, reference %q", name, n, c.NetName(n), want)
		}
	}
}

// TestListsMatchSliceOfSlices holds the flat-array lists to the
// slice-of-slices form on the six presets and on gen-random circuits:
// after construction, after a round trip through the circuit file (cells
// renumbered too, so rows list them out of ID order), after feedthrough
// insertion on a fork, after a whole serial route of a fork, and in every
// row block of a P=2 and a P=3 partition, whose middle block has fake pins
// on both boundaries. The forks and blocks leave the base's
// arrays as they were.
func TestListsMatchSliceOfSlices(t *testing.T) {
	var circuits []*circuit.Circuit
	giants := map[string]int{} // gen names its first nets, the giant ones, clk%d
	for _, name := range gen.CircuitNames() {
		c, err := gen.Benchmark(name, 7)
		cfg, _ := gen.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits, giants[name] = append(circuits, c), len(cfg.GiantNets)
	}
	for i := range 6 {
		c := randomCircuit(t, i)
		circuits, giants[c.Name] = append(circuits, c), map[bool]int{true: 1}[i%3 == 0]
	}
	ctx := context.Background()
	for _, c := range circuits {
		before := c.Clone()
		base := refConstructed(c)
		for n := range c.Nets {
			base.names = append(base.names, fmt.Sprintf(map[bool]string{true: "clk%d", false: "n%d"}[n < giants[c.Name]], n))
		}
		checkLists(t, c.Name+" construction", c, base)

		var file bytes.Buffer
		if err := c.WriteJSON(&file); err != nil {
			t.Fatal(err)
		}
		for _, f := range [][]byte{file.Bytes(), reverseCells(t, file.Bytes())} {
			read, err := circuit.ReadJSON(bytes.NewReader(f))
			if err != nil {
				t.Fatal(err)
			}
			checkLists(t, c.Name+" ReadJSON", read, refFromJSON(t, f))
		}

		rt := route.NewRouter(c.Fork(), route.Options{Seed: 5, Workers: 2})
		if err := errors.Join(rt.BuildTrees(ctx), rt.CoarseRoute(ctx), rt.InsertFeedthroughs()); err != nil {
			t.Fatal(err)
		}
		checkLists(t, c.Name+" ft-insert", rt.C, refRouted(rt.C, base))
		rt = route.NewRouter(c.Fork(), route.Options{Seed: 5, Workers: 2})
		if _, err := rt.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if rt.ExtraFts != 0 {
			t.Fatalf("%s: %d late feedthroughs, which bind out of x order", c.Name, rt.ExtraFts)
		}
		checkLists(t, c.Name+" route", rt.C, refRouted(rt.C, base))

		for _, p := range []int{2, 3} {
			blocks, err := partition.RowBlocks(c, p)
			if err != nil {
				t.Fatal(err)
			}
			specs := computeCrossings(c, blocks, make([]int, len(c.Nets)), 0)
			for k, block := range blocks {
				sub := buildBlockCircuit(c, block, specs[k])
				checkLists(t, fmt.Sprintf("%s P=%d block %d", c.Name, p, k), sub, refBlock(c, base, block, specs[k]))
			}
		}
		if !reflect.DeepEqual(c, before) {
			t.Fatalf("%s: routing forks or building blocks changed the base's arrays", c.Name)
		}
	}
}

package partition

// Edge-case coverage for the partition policies: empty rows among
// populated ones, degenerate nets (zero and one pin), and circuits whose
// pins all collapse into a single row. Partitioning feeds every parallel
// algorithm, so each degenerate shape must yield in-range owners and
// contiguous non-empty row blocks, never a panic or a skewed assignment.

import (
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/gen"
)

// rowBlocksCover asserts the blocks tile [0, rows) contiguously.
func rowBlocksCover(t *testing.T, blocks []RowBlock, rows int) {
	t.Helper()
	row := 0
	for k, b := range blocks {
		if b.Lo != row || b.Hi < b.Lo {
			t.Fatalf("block %d = %+v breaks the contiguous cover at row %d", k, b, row)
		}
		row = b.Hi + 1
	}
	if row != rows {
		t.Fatalf("blocks end at row %d of %d", row, rows)
	}
}

// TestRowBlocksEmptyRows puts empty rows between populated ones: the
// balance targets divide by cell counts, and an all-zero stretch must not
// stall the sweep or produce an empty block.
func TestRowBlocksEmptyRows(t *testing.T) {
	c := &circuit.Circuit{Name: "gaps", CellHeight: 10, FeedWidth: 2}
	populated := map[int]bool{0: true, 3: true, 4: true, 7: true}
	for r := 0; r < 8; r++ {
		c.AddRow()
		if populated[r] {
			for i := 0; i < 5; i++ {
				c.AddCell(r, 10)
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 4, 8} {
		blocks, err := RowBlocks(c, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if len(blocks) != p {
			t.Fatalf("p=%d: %d blocks", p, len(blocks))
		}
		rowBlocksCover(t, blocks, len(c.Rows))
	}
}

// TestRowBlocksAllRowsEmpty is the fully degenerate circuit: zero cells
// everywhere still yields one non-empty block per worker.
func TestRowBlocksAllRowsEmpty(t *testing.T) {
	c := &circuit.Circuit{Name: "void", CellHeight: 10, FeedWidth: 2}
	for r := 0; r < 5; r++ {
		c.AddRow()
	}
	blocks, err := RowBlocks(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	rowBlocksCover(t, blocks, 5)
	for k, b := range blocks {
		if b.Rows() != 1 {
			t.Fatalf("block %d spans %d rows, want 1 each", k, b.Rows())
		}
	}
}

// degenerateNets builds a circuit mixing a zero-pin net, single-pin nets,
// and ordinary two-pin nets.
func degenerateNets(t *testing.T) *circuit.Circuit {
	t.Helper()
	c := &circuit.Circuit{Name: "degen", CellHeight: 10, FeedWidth: 2}
	for r := 0; r < 4; r++ {
		c.AddRow()
		for i := 0; i < 6; i++ {
			c.AddCell(r, 10)
		}
	}
	c.AddNet("floating") // zero pins: weight must default, owner in range
	for i := 0; i < 6; i++ {
		n := c.AddNet("")
		c.AddPin(int(c.RowCells(i % 4)[i]), n, 1, circuit.Bottom) // single pin
	}
	for i := 0; i < 8; i++ {
		n := c.AddNet("")
		c.AddPin(int(c.RowCells(i % 4)[i%6]), n, 2, circuit.Bottom)
		c.AddPin(int(c.RowCells((i + 1) % 4)[(i+3)%6]), n, 3, circuit.Top)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNetsDegenerateNets runs every heuristic over zero-pin and
// single-pin nets; each net, however empty, must get an in-range owner.
func TestNetsDegenerateNets(t *testing.T) {
	c := degenerateNets(t)
	const p = 3
	blocks, err := RowBlocks(c, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		owner, err := Nets(c, blocks, p, Config{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(owner) != len(c.Nets) {
			t.Fatalf("%v: %d owners for %d nets", m, len(owner), len(c.Nets))
		}
		for n, o := range owner {
			if o < 0 || o >= p {
				t.Fatalf("%v: net %d owned by %d", m, n, o)
			}
		}
	}
}

// TestNetsAllPinsInOneRow concentrates every pin in row 0: the weight
// functions collapse to near-constant values, and the fill-to-average
// rule must still spread the pin load instead of stacking one worker.
func TestNetsAllPinsInOneRow(t *testing.T) {
	c := &circuit.Circuit{Name: "flat", CellHeight: 10, FeedWidth: 2}
	for r := 0; r < 4; r++ {
		c.AddRow()
		for i := 0; i < 40; i++ {
			c.AddCell(r, 10)
		}
	}
	for i := 0; i < 40; i++ {
		n := c.AddNet("")
		c.AddPin(int(c.RowCells(0)[i]), n, 1, circuit.Bottom)
		c.AddPin(int(c.RowCells(0)[(i+11)%40]), n, 2, circuit.Top)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	const p = 4
	blocks, err := RowBlocks(c, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		owner, err := Nets(c, blocks, p, Config{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for n, o := range owner {
			if o < 0 || o >= p {
				t.Fatalf("%v: net %d owned by %d", m, n, o)
			}
		}
		if st := Load(c, owner, p); st.Imbalance > 2 {
			t.Errorf("%v: one-row circuit imbalance %.2f", m, st.Imbalance)
		}
	}
}

// TestLoadZeroPins pins the degenerate Load/SteinerLoad path: no pins at
// all means a defined imbalance of exactly 1, not a division by zero.
func TestLoadZeroPins(t *testing.T) {
	c := &circuit.Circuit{Name: "empty", CellHeight: 10, FeedWidth: 2}
	c.AddRow()
	c.AddNet("a")
	c.AddNet("b")
	owner := []int{0, 1}
	if st := Load(c, owner, 2); st.Imbalance != 1 {
		t.Fatalf("Load imbalance = %v, want 1", st.Imbalance)
	}
	if st := SteinerLoad(c, owner, 2); st.Imbalance != 1 {
		t.Fatalf("SteinerLoad imbalance = %v, want 1", st.Imbalance)
	}
}

// TestRowBlocksSingleRowCircuit exercises the p == rows == 1 corner that
// the one-worker CLI path hits on tiny inputs.
func TestRowBlocksSingleRowCircuit(t *testing.T) {
	c := gen.Tiny(1)
	trimmed := &circuit.Circuit{Name: "one", CellHeight: c.CellHeight, FeedWidth: c.FeedWidth}
	trimmed.AddRow()
	trimmed.AddCell(0, 10)
	blocks, err := RowBlocks(trimmed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || blocks[0] != (RowBlock{Lo: 0, Hi: 0}) {
		t.Fatalf("blocks = %+v", blocks)
	}
}

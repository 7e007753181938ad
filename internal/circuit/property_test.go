package circuit

import (
	"testing"
	"testing/quick"

	"parroute/internal/rng"
)

// TestRandomConstructionStaysValid drives the construction API with random
// but legal operation sequences and checks Validate after every step.
func TestRandomConstructionStaysValid(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		c := &Circuit{Name: "prop", CellHeight: 10, FeedWidth: 1 + r.Intn(3)}
		rows := 2 + r.Intn(5)
		for i := 0; i < rows; i++ {
			c.AddRow()
		}
		nets := 1 + r.Intn(8)
		for i := 0; i < nets; i++ {
			c.AddNet("")
		}
		cells := rows + r.Intn(30)
		for i := 0; i < cells; i++ {
			c.AddCell(r.Intn(rows), 1+r.Intn(12))
		}
		// Pins on random cells.
		for i := 0; i < 40; i++ {
			cellID := r.Intn(len(c.Cells))
			cell := &c.Cells[cellID]
			offset := 0
			if cell.Width > 1 {
				offset = r.Intn(int(cell.Width))
			}
			c.AddPin(cellID, r.Intn(nets), offset, Side(r.Intn(3)))
		}
		return c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomFeedthroughInsertionInvariants checks that arbitrary insertion
// sequences keep the circuit valid, grow rows monotonically, and never
// move pins leftwards.
func TestRandomFeedthroughInsertionInvariants(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		c := &Circuit{Name: "prop", CellHeight: 10, FeedWidth: 2}
		const rows = 3
		for i := 0; i < rows; i++ {
			c.AddRow()
			for j := 0; j < 5; j++ {
				c.AddCell(i, 4+r.Intn(8))
			}
		}
		n := c.AddNet("n")
		for i := 0; i < 6; i++ {
			c.AddPin(r.Intn(len(c.Cells)), n, 0, Bottom)
		}
		c.AddFakePin(n, r.Intn(40), r.Intn(rows), Top)

		prevX := make([]int32, len(c.Pins))
		for i := range c.Pins {
			prevX[i] = c.Pins[i].X
		}
		prevW := make([]int, rows)
		for i := 0; i < rows; i++ {
			prevW[i] = c.RowWidth(i)
		}
		for step := 0; step < 25; step++ {
			row := r.Intn(rows)
			c.InsertFeedthrough(row, r.Intn(c.RowWidth(row)+10), NoNet)
			if c.Validate() != nil {
				return false
			}
			if c.RowWidth(row) != prevW[row]+c.FeedWidth {
				return false // row must grow by exactly the feed width
			}
			prevW[row] = c.RowWidth(row)
			for i := range prevX {
				if c.Pins[i].X < prevX[i] {
					return false // insertion never moves pins left
				}
				prevX[i] = c.Pins[i].X
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneEquivalenceUnderMutation: a clone must behave exactly like the
// original under the same mutation sequence.
func TestCloneEquivalenceUnderMutation(t *testing.T) {
	f := func(seed uint16) bool {
		r1 := rng.New(uint64(seed))
		r2 := rng.New(uint64(seed))
		base := &Circuit{Name: "p", CellHeight: 10, FeedWidth: 2}
		for i := 0; i < 3; i++ {
			base.AddRow()
			for j := 0; j < 4; j++ {
				base.AddCell(i, 6)
			}
		}
		n := base.AddNet("n")
		base.AddPin(0, n, 1, Bottom)
		base.AddPin(5, n, 2, Top)

		a := base.Clone()
		b := base.Clone()
		apply := func(c *Circuit, r *rng.RNG) {
			for step := 0; step < 10; step++ {
				c.InsertFeedthrough(r.Intn(3), r.Intn(c.CoreWidth()+5), n)
			}
		}
		apply(a, r1)
		apply(b, r2)
		if len(a.Pins) != len(b.Pins) || len(a.Cells) != len(b.Cells) {
			return false
		}
		for i := range a.Pins {
			if a.Pins[i] != b.Pins[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

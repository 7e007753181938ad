package circuit

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"parroute/internal/rng"
)

// randomRows builds a circuit for the insertion differential: rows with
// gaps between cells, cells sharing an x (zero-width ones in between), an
// empty row, pins on most cells and fake pins scattered over the rows.
func randomRows(r *rng.RNG) *Circuit {
	c := &Circuit{Name: "ins", CellHeight: 10, FeedWidth: r.Intn(4)} // 0 included
	n := c.AddNet("n")
	rows := 1 + r.Intn(4)
	for row := 0; row < rows; row++ {
		c.AddRow()
		if r.Intn(5) == 0 {
			continue // empty row
		}
		x := r.Intn(6)
		for i, cells := 0, 1+r.Intn(8); i < cells; i++ {
			w := r.Intn(7)
			if r.Intn(3) == 0 {
				w = 0
			}
			id := len(c.Cells)
			c.Cells = append(c.Cells, Cell{Row: int32(row), X: int32(x), Width: int32(w)})
			c.rowCells.add(row, int32(id))
			for k := r.Intn(3); k > 0; k-- {
				c.AddPin(id, n, r.Intn(w+1), Side(r.Intn(3)))
			}
			x += w
			if r.Intn(2) == 0 {
				x += r.Intn(5) // a gap the feedthroughs can sit in
			}
		}
	}
	for k := r.Intn(6); k > 0; k-- {
		c.AddFakePin(n, r.Intn(40)-2, r.Intn(rows), Side(r.Intn(2)))
	}
	return c
}

// randomRequests draws sorted per-row positions: repeats (several
// feedthroughs of one column), values left of the first cell and negative,
// values far right of the row, and rows with no request.
func randomRequests(r *rng.RNG, c *Circuit) (off, xs []int) {
	off = make([]int, len(c.Rows)+1)
	for row := range c.Rows {
		var rowXs []int
		if r.Intn(4) > 0 {
			for k := r.Intn(12); k > 0; k-- {
				x := r.Intn(c.RowWidth(row)+12) - 4
				rowXs = append(rowXs, x)
				for r.Intn(3) == 0 {
					rowXs = append(rowXs, x)
				}
			}
		}
		slices.Sort(rowXs)
		xs = append(xs, rowXs...)
		off[row+1] = len(xs)
	}
	return off, xs
}

// refInsertFeedthrough is the one-at-a-time insertion InsertFeedthroughRows
// is defined by: into row r, before the first cell whose left edge is at
// or right of x, goes a net-less feedthrough at the end of the cell before
// it (at x itself, within [0, the first cell's edge], in front of the row),
// and every cell, pin and fake pin of the row at or right of it moves right
// by the feedthrough width. It writes c in place.
func refInsertFeedthrough(c *Circuit, r, x int) {
	cells := c.RowCells(r)
	idx := sort.Search(len(cells), func(i int) bool { return int(c.Cells[cells[i]].X) >= x })
	at := 0
	if idx > 0 {
		prev := &c.Cells[cells[idx-1]]
		at = int(prev.X + prev.Width)
	} else if len(cells) > 0 {
		at = max(0, min(x, int(c.Cells[cells[0]].X)))
	}
	cellID := len(c.Cells)
	c.Cells = append(c.Cells, Cell{Row: int32(r), X: int32(at), Width: int32(c.FeedWidth), Feed: true})
	c.AddPin(cellID, NoNet, c.FeedWidth/2, Both)
	c.rowCells.add(r, 0)
	cells = c.RowCells(r)
	copy(cells[idx+1:], cells[idx:])
	cells[idx] = int32(cellID)
	for _, cid := range cells[idx+1:] {
		cell := &c.Cells[cid]
		cell.X += int32(c.FeedWidth)
		for _, pid := range c.CellPins(int(cid)) {
			c.Pins[pid].X = cell.X + c.Pins[pid].Offset
		}
	}
	for _, pid := range c.rowFakes.at(r) {
		if int(c.Pins[pid].X) >= at {
			c.Pins[pid].X += int32(c.FeedWidth)
		}
	}
}

// TestInsertFeedthroughRowsMatchesSequential is the definition of the bulk
// form: on random rows and requests it must leave the circuit exactly as
// one refInsertFeedthrough per request does — row order, every cell and
// every pin (fake pins included) — whether the rows are walked in order or
// all at once.
func TestInsertFeedthroughRowsMatchesSequential(t *testing.T) {
	inOrder := func(rows int, walk func(r int)) {
		for r := 0; r < rows; r++ {
			walk(r)
		}
	}
	atOnce := func(rows int, walk func(r int)) {
		var wg sync.WaitGroup
		for r := rows - 1; r >= 0; r-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				walk(r)
			}()
		}
		wg.Wait()
	}
	for seed := uint64(1); seed <= 400; seed++ {
		r := rng.New(seed)
		base := randomRows(r)
		off, xs := randomRequests(r, base)

		for mode, forRows := range []func(int, func(int)){inOrder, atOnce} {
			want := base.Clone()
			for row := range want.Rows {
				for _, x := range xs[off[row]:off[row+1]] {
					refInsertFeedthrough(want, row, x)
				}
			}
			got := base.Clone()
			first, err := got.InsertFeedthroughRows(off, xs, forRows)
			if err != nil {
				t.Fatalf("seed %d mode %d: %v", seed, mode, err)
			}
			if first != len(base.Pins) {
				t.Fatalf("seed %d: first pin %d, want %d", seed, first, len(base.Pins))
			}
			for row := range want.Rows {
				if !slices.Equal(got.RowCells(row), want.RowCells(row)) {
					t.Fatalf("seed %d mode %d row %d (feed width %d, xs %v):\n got %v\nwant %v",
						seed, mode, row, base.FeedWidth, xs[off[row]:off[row+1]],
						got.RowCells(row), want.RowCells(row))
				}
			}
			if !reflect.DeepEqual(got.Cells, want.Cells) {
				for i := range want.Cells {
					if !reflect.DeepEqual(got.Cells[i], want.Cells[i]) {
						t.Fatalf("seed %d mode %d cell %d: got %+v want %+v", seed, mode, i, got.Cells[i], want.Cells[i])
					}
				}
			}
			for i := range want.Pins {
				if got.Pins[i] != want.Pins[i] {
					t.Fatalf("seed %d mode %d pin %d: got %+v want %+v", seed, mode, i, got.Pins[i], want.Pins[i])
				}
			}
			if len(got.Pins) != len(want.Pins) || len(got.Cells) != len(want.Cells) {
				t.Fatalf("seed %d: %d pins %d cells, want %d and %d", seed, len(got.Pins), len(got.Cells), len(want.Pins), len(want.Cells))
			}
			// A late single insertion must not write into the next row's
			// list: the rebuilt lists share one array.
			for row := range got.Rows {
				got.InsertFeedthrough(row, 0, NoNet)
				refInsertFeedthrough(want, row, 0)
			}
			for row := range want.Rows {
				if !slices.Equal(got.RowCells(row), want.RowCells(row)) {
					t.Fatalf("seed %d row %d after a late insertion: got %v want %v",
						seed, row, got.RowCells(row), want.RowCells(row))
				}
			}
		}
	}
}

// TestForkMutatorsLeaveParent holds Fork to its contract on random circuits:
// each writer but construction, applied to a fork, leaves every array of
// the parent as a clone taken before the fork holds it, and leaves the fork
// equal to what the same mutation leaves in a clone.
func TestForkMutatorsLeaveParent(t *testing.T) {
	widest := func(c *Circuit) int {
		r := 0
		for i := range c.Rows {
			if len(c.RowCells(i)) > len(c.RowCells(r)) {
				r = i
			}
		}
		return r
	}
	insertRows := func(c *Circuit, per func(r int) []int) {
		off, xs := make([]int, len(c.Rows)+1), []int(nil)
		for r := range c.Rows {
			xs = append(xs, per(r)...)
			off[r+1] = len(xs)
		}
		if _, err := c.InsertFeedthroughRows(off, xs, func(rows int, walk func(r int)) {
			for r := 0; r < rows; r++ {
				walk(r)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(c *Circuit)
	}{
		{"InsertFeedthrough at a row's start", func(c *Circuit) { c.InsertFeedthrough(widest(c), -1, 0) }},
		{"InsertFeedthrough mid-row", func(c *Circuit) {
			r := widest(c)
			c.InsertFeedthrough(r, c.RowWidth(r)/2, 0)
		}},
		{"InsertFeedthrough at a row's end", func(c *Circuit) {
			r := widest(c)
			c.InsertFeedthrough(r, c.RowWidth(r)+1, NoNet)
		}},
		{"InsertFeedthroughRows, no requests", func(c *Circuit) { insertRows(c, func(int) []int { return nil }) }},
		{"InsertFeedthroughRows", func(c *Circuit) {
			insertRows(c, func(r int) []int { return []int{0, c.RowWidth(r) / 2, c.RowWidth(r) / 2} })
		}},
		{"AddFakePin", func(c *Circuit) { c.AddFakePin(0, 3, len(c.Rows)-1, Top) }},
		{"AddPins", func(c *Circuit) {
			c.AddPins([]Pin{{Net: 0, Cell: int32(len(c.Cells) - 1), Offset: 0, Side: Top}, {Net: NoNet, Cell: NoCell, X: 1, Side: Bottom}})
		}},
		{"InsertFeedthroughRows, then BindPins", func(c *Circuit) {
			first := len(c.Pins)
			insertRows(c, func(r int) []int { return []int{0, c.RowWidth(r) / 2} })
			c.BindPins([]int32{int32(len(c.Pins) - 1), int32(first)}, []int32{0, 0})
		}},
		{"Block", func(c *Circuit) {
			sub := c.Block(0, len(c.Rows)-1, []Pin{{Net: 0, Cell: NoCell, X: 2, Row: 0, Side: Top}})
			sub.InsertFeedthrough(0, 1, 0)
			*c = *sub
		}},
	} {
		for seed := uint64(1); seed <= 40; seed++ {
			base := randomRows(rng.New(seed))
			base.FeedWidth = max(base.FeedWidth, 2) // a shift that moves something
			before := base.Clone()
			fork := base.Fork()
			tc.mutate(fork)
			if !reflect.DeepEqual(base, before) {
				t.Fatalf("%s, seed %d: the mutation reached the parent", tc.name, seed)
			}
			want := base.Clone()
			tc.mutate(want)
			if !reflect.DeepEqual(fork.Clone(), want.Clone()) {
				t.Fatalf("%s, seed %d: the fork differs from the same mutation of a clone", tc.name, seed)
			}
		}
	}
}

// TestInsertFeedthroughRowsRejectsBadRequests: malformed offsets and
// unsorted positions are errors that leave the circuit as it was.
func TestInsertFeedthroughRowsRejectsBadRequests(t *testing.T) {
	c := randomRows(rng.New(3))
	before := c.Clone()
	rows := len(c.Rows)
	sorted := make([]int, rows+1)
	for r := 1; r <= rows; r++ {
		sorted[r] = 2
	}
	for name, tc := range map[string]struct{ off, xs []int }{
		"short offsets":   {make([]int, rows), nil},
		"offsets past xs": {sorted, []int{1}},
		"unsorted":        {sorted, []int{5, 4}},
	} {
		forRows := func(int, func(int)) { t.Errorf("%s: rows walked", name) }
		if _, err := c.InsertFeedthroughRows(tc.off, tc.xs, forRows); err == nil {
			t.Errorf("%s: no error", name)
		}
		if !reflect.DeepEqual(c.Clone(), before) { // clones: nil and empty lists compare equal
			t.Fatalf("%s: circuit changed by a rejected request", name)
		}
	}
}

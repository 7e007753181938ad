package circuit

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadJSON checks that arbitrary input never panics the circuit
// parser and that every accepted circuit validates and round-trips.
func FuzzReadJSON(f *testing.F) {
	// Seed with a real circuit and a few mutations.
	c := &Circuit{Name: "seed", CellHeight: 10, FeedWidth: 2}
	c.AddRow()
	c.AddRow()
	c.AddCell(0, 8)
	c.AddCell(1, 6)
	n := c.AddNet("n")
	c.AddPin(0, n, 2, Bottom)
	c.AddPin(1, n, 1, Top)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{}`)
	f.Add(`{"rows":[[0]],"cells":[{"row":0,"x":0,"width":1,"pins":[]}],"nets":[]}`)
	f.Add(`{"rows":[[99]]}`)
	f.Add(`[1,2,3]`)
	// The int32 room: at the limit, one past it, past int32, and a
	// feedthrough width whose insertions pass it (see limitJSON).
	const limit = MaxCoord - 3*2
	f.Add(limitJSON(2, limit-4, 4, 1))
	f.Add(limitJSON(2, limit-3, 4, 1))
	f.Add(limitJSON(2, 8, 4, limit-7))
	f.Add(limitJSON(2, 8, 4, 1<<40))
	f.Add(limitJSON((MaxCoord-9)/3, 8, 4, 1))
	f.Add(widthJSON(MaxCoord))
	f.Add(widthJSON(MaxCoord + 1))
	f.Add(widthJSON(1<<32 + 5))
	// The flat lists: a net whose pins sit on many cells, interleaved with
	// another's (one counting pass sorts them out), and a row that lists
	// its cells out of ID order.
	f.Add(`{"name":"fan","cellHeight":10,"feedWidth":2,"rows":[[0,1,2,3]],"cells":[` +
		`{"row":0,"x":0,"width":2,"pins":[{"net":0,"offset":0,"side":0},{"net":1,"offset":1,"side":1}]},` +
		`{"row":0,"x":2,"width":2,"pins":[{"net":1,"offset":0,"side":2},{"net":0,"offset":1,"side":0}]},` +
		`{"row":0,"x":4,"width":2,"pins":[{"net":0,"offset":1,"side":1},{"net":-1,"offset":0,"side":0}]},` +
		`{"row":0,"x":6,"width":2,"pins":[{"net":0,"offset":0,"side":2}]}],"nets":[{"name":"a"},{"name":"b"}]}`)
	f.Add(`{"name":"shuffled","cellHeight":10,"feedWidth":2,"rows":[[2,0,1],[]],"cells":[` +
		`{"row":0,"x":3,"width":3,"pins":[{"net":0,"offset":1,"side":0}]},` +
		`{"row":0,"x":6,"width":2,"pins":[]},` +
		`{"row":0,"x":0,"width":3,"pins":[{"net":0,"offset":2,"side":1}]}],"nets":[{"name":"n"}]}`)
	// A side past Both, which ReadJSON refuses.
	f.Add(sideJSON(3))

	f.Fuzz(func(t *testing.T, input string) {
		got, err := ReadJSON(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("ReadJSON accepted an invalid circuit: %v", verr)
		}
		// Accepted circuits round-trip.
		var out bytes.Buffer
		if err := got.WriteJSON(&out); err != nil {
			t.Fatalf("accepted circuit failed to serialize: %v", err)
		}
		again, err := ReadJSON(&out)
		if err != nil {
			t.Fatalf("round-trip failed: %v", err)
		}
		if len(again.Cells) != len(got.Cells) || len(again.Pins) != len(got.Pins) {
			t.Fatal("round-trip changed the circuit size")
		}
		for r := range got.Rows {
			if !slices.Equal(again.RowCells(r), got.RowCells(r)) {
				t.Fatalf("round-trip changed row %d: %v, was %v", r, again.RowCells(r), got.RowCells(r))
			}
		}
		for id := range got.Cells {
			if !slices.Equal(again.CellPins(id), got.CellPins(id)) {
				t.Fatalf("round-trip changed cell %d's pins: %v, was %v", id, again.CellPins(id), got.CellPins(id))
			}
		}
		for n := range got.Nets {
			if !slices.Equal(again.NetPins(n), got.NetPins(n)) || again.NetName(n) != got.NetName(n) {
				t.Fatalf("round-trip changed net %d: %q %v, was %q %v", n, again.NetName(n), again.NetPins(n), got.NetName(n), got.NetPins(n))
			}
		}
	})
}

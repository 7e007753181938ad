package circuit

import (
	"bytes"
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
	})
}

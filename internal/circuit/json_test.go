package circuit

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	c := buildTiny(t)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != c.Name || got.CellHeight != c.CellHeight || got.FeedWidth != c.FeedWidth {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Cells) != len(c.Cells) || len(got.Pins) != len(c.Pins) || len(got.Nets) != len(c.Nets) {
		t.Fatalf("sizes: cells %d/%d pins %d/%d nets %d/%d",
			len(got.Cells), len(c.Cells), len(got.Pins), len(c.Pins), len(got.Nets), len(c.Nets))
	}
	for i := range c.Cells {
		if got.Cells[i].X != c.Cells[i].X || got.Cells[i].Width != c.Cells[i].Width ||
			got.Cells[i].Row != c.Cells[i].Row {
			t.Fatalf("cell %d mismatch: %+v vs %+v", i, got.Cells[i], c.Cells[i])
		}
	}
	// Pin IDs are renumbered cell-by-cell on load; compare per cell.
	for i := range c.Cells {
		wantPins := c.CellPins(i)
		gotPins := got.CellPins(i)
		if len(wantPins) != len(gotPins) {
			t.Fatalf("cell %d pin count %d vs %d", i, len(gotPins), len(wantPins))
		}
		for j := range wantPins {
			w, g := c.Pins[wantPins[j]], got.Pins[gotPins[j]]
			if g.X != w.X || g.Net != w.Net || g.Side != w.Side || g.Offset != w.Offset {
				t.Fatalf("cell %d pin %d mismatch: %+v vs %+v", i, j, g, w)
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped circuit invalid: %v", err)
	}
}

func TestJSONRejectsRoutedCircuits(t *testing.T) {
	c := buildTiny(t)
	c.InsertFeedthrough(0, 8, 0)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err == nil {
		t.Fatal("serialized a circuit with feedthrough cells")
	}
	c2 := buildTiny(t)
	c2.AddFakePin(0, 3, 0, Top)
	if err := c2.WriteJSON(&buf); err == nil {
		t.Fatal("serialized a circuit with fake pins")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":     "hello",
		"bad cell row": `{"name":"x","cellHeight":10,"feedWidth":2,"rows":[[0]],"cells":[{"row":5,"x":0,"width":4,"pins":[]}],"nets":[]}`,
		"bad net ref":  `{"name":"x","cellHeight":10,"feedWidth":2,"rows":[[0]],"cells":[{"row":0,"x":0,"width":4,"pins":[{"net":3,"offset":0,"side":0}]}],"nets":[]}`,
		"bad row ref":  `{"name":"x","cellHeight":10,"feedWidth":2,"rows":[[7]],"cells":[{"row":0,"x":0,"width":4,"pins":[]}],"nets":[]}`,
	}
	for name, payload := range cases {
		if _, err := ReadJSON(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// limitJSON is a one-row circuit of two cells on one two-pin net: cell 1 at
// x with width w and its pin at offset off. A route of it inserts at most
// 3·(2-1)·1 = 3 feedthroughs of width feedWidth, so Validate's limit for a
// cell edge or pin x is MaxCoord - 3·feedWidth.
func limitJSON(feedWidth, x, w, off int) string {
	return fmt.Sprintf(`{"name":"limit","cellHeight":10,"feedWidth":%d,"rows":[[0,1]],"cells":[`+
		`{"row":0,"x":0,"width":4,"pins":[{"net":0,"offset":1,"side":0}]},`+
		`{"row":0,"x":%d,"width":%d,"pins":[{"net":0,"offset":%d,"side":1}]}],"nets":[{"name":"n"}]}`,
		feedWidth, x, w, off)
}

// widthJSON is limitJSON's circuit with no feedthrough width and cell 1
// alone in a second row at x 0, so its width w alone reaches the limit.
func widthJSON(w int) string {
	return fmt.Sprintf(`{"name":"width","cellHeight":10,"feedWidth":0,"rows":[[0],[1]],"cells":[`+
		`{"row":0,"x":0,"width":4,"pins":[{"net":0,"offset":1,"side":0}]},`+
		`{"row":1,"x":0,"width":%d,"pins":[{"net":0,"offset":1,"side":1}]}],"nets":[{"name":"n"}]}`, w)
}

// TestReadJSONInt32Limits: a cell's right edge, its width or its pin's offset
// exactly at the limit is accepted, one past it is rejected naming the cell,
// and so is a feedthrough width whose insertions would carry a cell past
// MaxCoord. A width is refused before it is narrowed: 2^32+5 would
// otherwise arrive as a valid-looking 5.
func TestReadJSONInt32Limits(t *testing.T) {
	const limit = MaxCoord - 3*2
	cases := []struct {
		name    string
		payload string
		ok      bool
	}{
		{"x-at-limit", limitJSON(2, limit-4, 4, 1), true},
		{"x-past-limit", limitJSON(2, limit-3, 4, 1), false},
		{"width-at-limit", limitJSON(2, 8, limit-8, 1), true},
		{"width-past-limit", limitJSON(2, 8, limit-7, 1), false},
		{"offset-at-limit", limitJSON(2, 8, 4, limit-8), true},
		{"offset-past-limit", limitJSON(2, 8, 4, limit-7), false},
		{"offset-past-int32", limitJSON(2, 8, 4, 1<<40), false},
		{"x-past-int32", limitJSON(2, 1<<40, 4, 1), false},
		{"x-negative", limitJSON(2, -8, 4, 1), false},
		{"width-max-coord", widthJSON(MaxCoord), true},
		{"width-past-max-coord", widthJSON(MaxCoord + 1), false},
		{"width-past-int32", widthJSON(1<<32 + 5), false},
		// Cell 1 ends at 12; three insertions of this width leave room to x 10.
		{"insertion-past-limit", limitJSON((MaxCoord-9)/3, 8, 4, 1), false},
	}
	for _, tc := range cases {
		_, err := ReadJSON(strings.NewReader(tc.payload))
		if tc.ok {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), "cell 1") {
			t.Errorf("%s: error %q does not name cell 1", tc.name, err)
		}
	}
}

// sideJSON is limitJSON's circuit with cell 1's pin, its second, on side s;
// its first is a net-less bottom pin.
func sideJSON(s int) string {
	return fmt.Sprintf(`{"name":"side","cellHeight":10,"feedWidth":2,"rows":[[0,1]],"cells":[`+
		`{"row":0,"x":0,"width":4,"pins":[{"net":0,"offset":1,"side":0}]},`+
		`{"row":0,"x":8,"width":4,"pins":[{"net":-1,"offset":0,"side":0},{"net":0,"offset":1,"side":%d}]}],"nets":[{"name":"n"}]}`, s)
}

// TestPinSideOutsideTheThreeIsRefused: a pin side past Both, which Channels
// would route as Both, is refused by ReadJSON naming the cell, the pin and
// the side, and by Validate naming the pin; the three sides pass both.
func TestPinSideOutsideTheThreeIsRefused(t *testing.T) {
	for _, side := range []int{0, 1, 2, 3, 7, 255} {
		c, err := ReadJSON(strings.NewReader(sideJSON(side)))
		if side <= int(Both) {
			if err != nil {
				t.Errorf("side %d: rejected: %v", side, err)
			}
			continue
		}
		if want := fmt.Sprintf("cell 1 pin 1 has side %d outside {bottom, top, both}", side); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("side %d: ReadJSON error %v, want one naming %q", side, err, want)
		}
		if c, err = ReadJSON(strings.NewReader(sideJSON(int(Both)))); err != nil {
			t.Fatal(err)
		}
		c.Pins[2].Side = Side(side)
		want := fmt.Sprintf("pin 2 has side %d outside", side)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("side %d: Validate error %v, want one naming %q", side, err, want)
		}
	}
}

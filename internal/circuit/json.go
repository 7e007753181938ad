package circuit

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonCircuit is the stable on-disk representation written by cmd/gensc and
// consumed by cmd/twgr. It stores only the placement-level design; inserted
// feedthroughs and fake pins are routing artifacts and are not serialized.
type jsonCircuit struct {
	Name       string     `json:"name"`
	CellHeight int        `json:"cellHeight"`
	FeedWidth  int        `json:"feedWidth"`
	Rows       [][]int    `json:"rows"` // cell IDs per row, left to right
	Cells      []jsonCell `json:"cells"`
	Nets       []jsonNet  `json:"nets"`
}

type jsonCell struct {
	Row   int       `json:"row"`
	X     int       `json:"x"`
	Width int       `json:"width"`
	Pins  []jsonPin `json:"pins"`
}

type jsonPin struct {
	Net    int  `json:"net"`
	Offset int  `json:"offset"`
	Side   Side `json:"side"`
}

type jsonNet struct {
	Name string `json:"name"`
}

// WriteJSON serializes the circuit. Circuits containing routing artifacts
// (feedthrough cells or fake pins) are rejected: serialization is for
// pre-routing designs.
func (c *Circuit) WriteJSON(w io.Writer) error {
	jc := jsonCircuit{
		Name:       c.Name,
		CellHeight: c.CellHeight,
		FeedWidth:  c.FeedWidth,
		Rows:       make([][]int, len(c.Rows)),
		Cells:      make([]jsonCell, len(c.Cells)),
		Nets:       make([]jsonNet, len(c.Nets)),
	}
	for i := range c.Pins {
		if c.Pins[i].Fake {
			return fmt.Errorf("circuit: cannot serialize circuit with fake pin %d", i)
		}
	}
	for i := range c.Rows {
		for _, cid := range c.RowCells(i) {
			jc.Rows[i] = append(jc.Rows[i], int(cid))
		}
	}
	for i := range c.Cells {
		cell := &c.Cells[i]
		if cell.Feed {
			return fmt.Errorf("circuit: cannot serialize circuit with feedthrough cell %d", i)
		}
		jcell := jsonCell{Row: int(cell.Row), X: int(cell.X), Width: int(cell.Width)}
		for _, pid := range c.CellPins(i) {
			p := &c.Pins[pid]
			jcell.Pins = append(jcell.Pins, jsonPin{Net: int(p.Net), Offset: int(p.Offset), Side: p.Side})
		}
		jc.Cells[i] = jcell
	}
	for i := range c.Nets {
		jc.Nets[i] = jsonNet{Name: c.NetName(i)}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&jc)
}

// ReadJSON parses a circuit written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*Circuit, error) {
	var jc jsonCircuit
	dec := json.NewDecoder(r)
	if err := dec.Decode(&jc); err != nil {
		return nil, fmt.Errorf("circuit: decoding: %w", err)
	}
	c := &Circuit{
		Name:       jc.Name,
		CellHeight: jc.CellHeight,
		FeedWidth:  jc.FeedWidth,
	}
	for range jc.Rows {
		c.AddRow()
	}
	for _, jn := range jc.Nets {
		c.AddNet(jn.Name)
	}
	// Cells must be added in row order to keep AddCell's x bookkeeping
	// simple, but the file stores explicit x positions; rebuild directly.
	c.Cells = make([]Cell, len(jc.Cells))
	for i, jcell := range jc.Cells {
		if jcell.Row < 0 || jcell.Row >= len(c.Rows) {
			return nil, fmt.Errorf("circuit: cell %d has row %d out of range", i, jcell.Row)
		}
		if jcell.X < 0 || jcell.X > MaxCoord {
			return nil, fmt.Errorf("circuit: cell %d has x %d outside [0, %d]", i, jcell.X, MaxCoord)
		}
		if jcell.Width < 1 || jcell.Width > MaxCoord {
			return nil, fmt.Errorf("circuit: cell %d has width %d outside [1, %d]", i, jcell.Width, MaxCoord)
		}
		c.Cells[i] = Cell{Row: int32(jcell.Row), X: int32(jcell.X), Width: int32(jcell.Width)}
	}
	for r, ids := range jc.Rows {
		for _, cid := range ids {
			if cid < 0 || cid >= len(c.Cells) {
				return nil, fmt.Errorf("circuit: row %d references cell %d out of range", r, cid)
			}
			c.rowCells.add(r, int32(cid)) // row r's list is the last: an append
		}
	}
	for i, jcell := range jc.Cells {
		for j, jp := range jcell.Pins {
			if jp.Net != NoNet && (jp.Net < 0 || jp.Net >= len(c.Nets)) {
				return nil, fmt.Errorf("circuit: cell %d pin has net %d out of range", i, jp.Net)
			}
			if jp.Side > Both {
				return nil, fmt.Errorf("circuit: cell %d pin %d has side %d outside {bottom, top, both}", i, j, jp.Side)
			}
			// The pins' fields are int32: Validate can only check the room
			// a route needs on values that arrived whole.
			if jp.Offset < -jcell.X || jp.Offset > MaxCoord-jcell.X {
				return nil, fmt.Errorf("circuit: cell %d pin has offset %d outside [%d, %d]", i, jp.Offset, -jcell.X, MaxCoord-jcell.X)
			}
			c.Pins = append(c.Pins, Pin{Net: int32(jp.Net), Cell: int32(i), Offset: int32(jp.Offset), Side: jp.Side})
		}
	}
	c.listPins(0) // one pass lists them all, in ID order
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("circuit: invalid circuit in file: %w", err)
	}
	return c, nil
}

// Package circuit models a row-based standard-cell design the way the
// TimberWolfSC global router sees it: rows of cells, pins on cells, nets
// over pins, and feedthrough cells inserted during routing.
//
// Geometry convention: rows are numbered bottom-up, 0..NumRows-1. Between
// and around the rows lie NumRows+1 routing channels; channel c runs below
// row c (so channel 0 is under the bottom row and channel NumRows is above
// the top row). A pin on the Bottom edge of a cell in row r is reachable
// from channel r; a Top pin from channel r+1; a pin with an electrically
// equivalent twin on the opposite edge (side Both) from either.
package circuit

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"parroute/internal/geom"
)

// Side identifies which cell edge(s) a pin is on.
type Side uint8

const (
	// Bottom pins face the channel below the pin's row.
	Bottom Side = iota
	// Top pins face the channel above the pin's row.
	Top
	// Both marks a pin with an electrically equivalent pin on the opposite
	// cell edge; it is reachable from either adjacent channel. Feedthrough
	// pins are always Both.
	Both
)

func (s Side) String() string {
	switch s {
	case Bottom:
		return "bottom"
	case Top:
		return "top"
	case Both:
		return "both"
	}
	return fmt.Sprintf("Side(%d)", uint8(s))
}

// NoCell is the Cell value of a pin not attached to any cell (a fake pin
// introduced by the row-wise parallel algorithm; such pins keep their
// position when feedthrough insertion shifts cells).
const NoCell = -1

// NoNet is the Net value of a pin not connected to any net.
const NoNet = -1

// MaxCoord is the largest value a circuit record field holds: ids, offsets,
// widths and coordinates are int32. Validate admits a circuit only if its
// routes stay at or below it (checkRoom); a peer's coordinates are checked
// against it where they are received.
const MaxCoord = math.MaxInt32

// Pin is a connection point; its ID is its index in Circuit.Pins. X and Row
// are absolute coordinates, kept in sync with the owning cell (if any) when
// cells shift. Every route copies and streams the pin table, so its fields
// are int32, like the other records': Validate admits only circuits whose
// routes keep them in range (MaxCoord), and the int-typed constructors
// narrow with a plain conversion on that promise.
type Pin struct {
	Net    int32 // net index, or NoNet
	Cell   int32 // cell index, or NoCell for fake pins
	Offset int32 // x offset from the owning cell's left edge (0 if no cell)
	X      int32 // absolute x coordinate
	Row    int32 // row index
	Side   Side  // cell edge(s) the pin is on
	Fake   bool  // true for boundary pins added by the parallel algorithms
}

// Channels returns the routing channels from which the pin is reachable.
// The second value is only meaningful when two channels are returned
// (ok == true); for single-channel pins it equals the first.
func (p *Pin) Channels() (lo, hi int, both bool) {
	row := int(p.Row)
	switch p.Side {
	case Bottom:
		return row, row, false
	case Top:
		return row + 1, row + 1, false
	default:
		return row, row + 1, true
	}
}

// Point returns the pin position with the row index as y.
func (p *Pin) Point() geom.Point { return geom.Point{X: int(p.X), Y: int(p.Row)} }

// Cell is a placed standard cell (or an inserted feedthrough cell).
type Cell struct {
	Row   int32
	X     int32 // left edge
	Width int32
	Feed  bool    // true for feedthrough cells inserted by the router
	Pins  []int32 // pin IDs on this cell
}

// Net is a set of electrically connected pins.
type Net struct {
	Name string
	Pins []int32 // pin IDs
}

// Row is an ordered strip of cells.
type Row struct {
	Cells []int32 // cell IDs, left to right
}

// Circuit is a complete standard-cell design plus everything the router
// adds to it (feedthrough cells, fake pins).
type Circuit struct {
	Name string
	Rows []Row
	// A row's, cell's, pin's or net's ID is its index here; entries are
	// appended, never removed, so IDs stay stable across feedthrough
	// insertion.
	Cells []Cell
	Pins  []Pin
	Nets  []Net

	// CellHeight is the uniform row height, FeedWidth the width of an
	// inserted feedthrough cell, both in the same x units as cell widths.
	CellHeight int
	FeedWidth  int

	// fakeByRow indexes fake pins by row so feedthrough insertion can
	// shift them along with the row's cells. (The paper keeps fake pins
	// frozen; see DESIGN.md for why this reproduction tracks the shift.)
	// Indexed by row, grown on first fake pin; most circuits (and every
	// serial run) never allocate it.
	fakeByRow [][]int
}

// NumChannels returns the number of routing channels (rows + 1).
func (c *Circuit) NumChannels() int { return len(c.Rows) + 1 }

// RowWidth returns the occupied width of row r (right edge of its last
// cell), or 0 for an empty row.
func (c *Circuit) RowWidth(r int) int {
	row := &c.Rows[r]
	if len(row.Cells) == 0 {
		return 0
	}
	last := &c.Cells[row.Cells[len(row.Cells)-1]]
	return int(last.X) + int(last.Width)
}

// CoreWidth returns the widest row's width: the horizontal extent of the
// placement.
func (c *Circuit) CoreWidth() int {
	w := 0
	for r := range c.Rows {
		w = geom.Max(w, c.RowWidth(r))
	}
	return w
}

// AddRow appends an empty row and returns its index.
func (c *Circuit) AddRow() int {
	c.Rows = append(c.Rows, Row{})
	return len(c.Rows) - 1
}

// AddCell appends a cell at the right end of row r and returns its ID.
// The caller provides the width; the x position follows the previous cell.
// It is construction-time only, like AddPin.
func (c *Circuit) AddCell(r, width int) int {
	id := len(c.Cells)
	c.Cells = append(c.Cells, Cell{Row: int32(r), X: int32(c.RowWidth(r)), Width: int32(width)})
	c.Rows[r].Cells = append(c.Rows[r].Cells, int32(id))
	return id
}

// AddNet appends an empty net and returns its ID.
func (c *Circuit) AddNet(name string) int {
	c.Nets = append(c.Nets, Net{Name: name})
	return len(c.Nets) - 1
}

// AddPin creates a pin on cell cellID at the given offset and side and
// attaches it to net netID (which may be NoNet). It returns the pin ID.
// Construction-time only: it writes the cell in place, which a Fork shares.
func (c *Circuit) AddPin(cellID, netID, offset int, side Side) int {
	cell := &c.Cells[cellID]
	id := len(c.Pins)
	c.Pins = append(c.Pins, Pin{
		Net: int32(netID), Cell: int32(cellID), Offset: int32(offset),
		X: cell.X + int32(offset), Row: cell.Row, Side: side,
	})
	cell.Pins = append(cell.Pins, int32(id))
	if netID != NoNet {
		c.Nets[netID].Pins = append(c.Nets[netID].Pins, int32(id))
	}
	return id
}

// AddFakePin creates a cell-less pin at absolute position (x, row) attached
// to net netID. Fake pins represent a net's crossing point on a partition
// boundary; they are reachable from the side's channel only.
func (c *Circuit) AddFakePin(netID, x, row int, side Side) int {
	id := len(c.Pins)
	c.Pins = append(c.Pins, Pin{
		Net: int32(netID), Cell: NoCell,
		X: int32(x), Row: int32(row), Side: side, Fake: true,
	})
	if netID != NoNet {
		c.Nets[netID].Pins = append(c.Nets[netID].Pins, int32(id))
	}
	for len(c.fakeByRow) <= row {
		c.fakeByRow = append(c.fakeByRow, nil)
	}
	c.fakeByRow[row] = append(c.fakeByRow[row], id)
	return id
}

// InsertFeedthrough inserts a feedthrough cell into row r as close as
// possible to x, shifting every cell at or right of the insertion point
// (and the pins on them) by the feedthrough width. It returns the ID of the
// feedthrough's pin, which is attached to net netID.
//
// This is the one-at-a-time form (O(row length) per call) for the rare
// late insertion; bulk insertion goes through InsertFeedthroughRows, whose
// result is defined as what a sequence of these calls produces.
func (c *Circuit) InsertFeedthrough(r, x, netID int) int {
	row := &c.Rows[r]
	// Find the first cell whose left edge is >= x; insert before it.
	idx := sort.Search(len(row.Cells), func(i int) bool {
		return int(c.Cells[row.Cells[i]].X) >= x
	})
	var at int
	if idx == 0 {
		at = 0
		if len(row.Cells) > 0 {
			at = geom.Min(x, int(c.Cells[row.Cells[0]].X))
		}
		if at < 0 {
			at = 0
		}
	} else {
		prev := &c.Cells[row.Cells[idx-1]]
		at = int(prev.X + prev.Width)
	}

	cellID := len(c.Cells)
	c.Cells = append(c.Cells, Cell{
		Row: int32(r), X: int32(at), Width: int32(c.FeedWidth), Feed: true,
	})
	// Before the shifts: on a Fork, this append moves Pins out of the parent.
	pinID := c.AddPin(cellID, netID, c.FeedWidth/2, Both)
	row.Cells = append(row.Cells, 0)
	copy(row.Cells[idx+1:], row.Cells[idx:])
	row.Cells[idx] = int32(cellID)

	// Shift everything to the right of the insertion point — cells, the
	// pins on them, and the fake pins registered on this row, so boundary
	// hand-off points drift with the layout around them instead of
	// stretching every boundary wire by the accumulated insertion width.
	for _, cid := range row.Cells[idx+1:] {
		cell := &c.Cells[cid]
		cell.X += int32(c.FeedWidth)
		for _, pid := range cell.Pins {
			c.Pins[pid].X = cell.X + c.Pins[pid].Offset
		}
	}
	if r < len(c.fakeByRow) {
		for _, pid := range c.fakeByRow[r] {
			if int(c.Pins[pid].X) >= at {
				c.Pins[pid].X += int32(c.FeedWidth)
			}
		}
	}
	return pinID
}

// InsertFeedthroughRows inserts len(xs) net-less feedthrough cells at once:
// row r receives one at each x of xs[off[r]:off[r+1]] (off is a prefix sum
// over the rows), and the result — row order, every cell, every pin — is
// exactly what calling InsertFeedthrough(r, x, NoNet) for each entry in
// order would leave. The feedthrough for xs[i] gets cell ID first cell + i
// and pin ID firstPin + i, so callers address the new pins by position.
//
// Within a row the xs must be non-decreasing. That is what makes one walk
// per row enough: an insertion only shifts cells that are not left of it,
// so the insertion cursor never moves left, the shift of the cells behind
// it is applied once when the cursor passes them, and the only reordering
// is among feedthroughs of one gap (a later one can land in front of
// earlier ones), which a stack resolves. Rows share no state — IDs and
// scratch come from off — so the walks may run concurrently: forRows is
// handed the row count and the walk, and must have called walk(r) once for
// every row r when it returns, on as many goroutines as it likes.
//
// The arguments are checked before anything is written: an error leaves c
// untouched. Cells, Pins and the touched rows' lists are regrown into fresh
// arrays: on a Fork, this is the copy at the first write.
func (c *Circuit) InsertFeedthroughRows(off, xs []int, forRows func(rows int, walk func(r int))) (firstPin int, err error) {
	rows := len(c.Rows)
	if len(off) != rows+1 || off[0] != 0 || off[rows] != len(xs) {
		return 0, fmt.Errorf("circuit: feedthrough offsets do not cover %d rows and %d positions", rows, len(xs))
	}
	// listOff[r] is where row r's regrown cell list starts in one shared
	// backing array; rows that receive nothing keep their list.
	listOff := make([]int, rows+1)
	for r := 0; r < rows; r++ {
		lo, hi := off[r], off[r+1]
		if hi < lo || hi > len(xs) {
			return 0, fmt.Errorf("circuit: feedthrough offsets decrease at row %d", r)
		}
		for i := lo + 1; i < hi; i++ {
			if xs[i] < xs[i-1] {
				return 0, fmt.Errorf("circuit: feedthrough positions of row %d not sorted: %d after %d", r, xs[i], xs[i-1])
			}
		}
		listOff[r+1] = listOff[r]
		if hi > lo {
			listOff[r+1] += len(c.Rows[r].Cells) + hi - lo
		}
	}
	firstCell, firstPin := len(c.Cells), len(c.Pins)
	if len(xs) == 0 {
		return firstPin, nil
	}
	// Grown from length-capped slices: always into fresh arrays (a circuit
	// value copied before this call keeps its own), and without first
	// zeroing the pointer-free pins that the copy overwrites.
	c.Cells = slices.Grow(c.Cells[:firstCell:firstCell], len(xs))[:firstCell+len(xs)]
	c.Pins = slices.Grow(c.Pins[:firstPin:firstPin], len(xs))[:firstPin+len(xs)]
	lists := make([]int32, listOff[rows])
	// Per request: the feedthrough's one-pin list, and the walk's two
	// scratch slots.
	perFeed := make([]int32, 3*len(xs))
	cellPins, scratch := perFeed[:len(xs)], perFeed[len(xs):]
	forRows(rows, func(r int) {
		lo, hi := off[r], off[r+1]
		if hi > lo {
			// Capped at its own end, so a later append copies out instead
			// of running into the next row's list.
			out := lists[listOff[r]:listOff[r+1]:listOff[r+1]]
			c.walkRow(r, xs[lo:hi], firstCell+lo, firstPin+lo, out, cellPins[lo:hi], scratch[2*lo:2*hi])
		}
	})
	return firstPin, nil
}

// walkRow is the one-row walk of InsertFeedthroughRows: the row's cells and
// the new feedthroughs (cell IDs cell0.., pin IDs pin0..) are written to out
// left to right with their final positions. scratch has two slots per x.
func (c *Circuit) walkRow(r int, xs []int, cell0, pin0 int, out, cellPins, scratch []int32) {
	old := c.Rows[r].Cells
	fw := c.FeedWidth
	// pending holds the feedthroughs of the current gap that a later one may
	// still land in front of, rightmost first — the top is the leftmost.
	pending := scratch[:0:len(xs)]
	// reach[j] is the largest at_i - i*FeedWidth over insertions i <= j
	// (at_i being where insertion i went in): a fake pin that started at x0
	// is still at or right of insertions 0..j exactly when reach[j] <= x0.
	reach := scratch[len(xs):len(xs)]
	// Feedthroughs of the gap under the cursor sit at base, base+fw, ...;
	// placed counts the leading ones no later insertion can displace.
	p, n, base, placed := 0, 0, 0, 0
	// settle writes out the pending feedthroughs, leftmost first, that sit
	// left of x: nothing inserted at or right of x can displace them.
	settle := func(x int) {
		for ; len(pending) > 0 && base+placed*fw < x; placed++ {
			cid := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			c.Cells[cid].X = int32(base + placed*fw)
			out[n] = cid
			n++
		}
	}
	firstMoved := -1 // index in out of the first cell whose position changed
	for j, x := range xs {
		shift := j * fw // every earlier feedthrough is left of old[p]
		if p < len(old) && int(c.Cells[old[p]].X)+shift < x {
			// The cursor leaves its gap: whatever is pending there is final.
			settle(math.MaxInt)
			for ; p < len(old) && int(c.Cells[old[p]].X)+shift < x; p++ {
				c.Cells[old[p]].X += int32(shift)
				out[n] = old[p]
				n++
			}
			prev := &c.Cells[old[p-1]]
			base, placed = int(prev.X+prev.Width), 0
		} else if j == 0 && len(old) > 0 {
			// In front of the first cell: at x itself, within [0, its edge].
			base = geom.Max(0, geom.Min(x, int(c.Cells[old[0]].X)))
		}
		settle(x)
		if firstMoved < 0 {
			firstMoved = n
		}
		cid, pid := cell0+j, pin0+j
		cellPins[j] = int32(pid)
		c.Cells[cid] = Cell{Row: int32(r), Width: int32(fw), Pins: cellPins[j : j+1 : j+1], Feed: true}
		c.Pins[pid] = Pin{Net: NoNet, Cell: int32(cid), Offset: int32(fw / 2), Row: int32(r), Side: Both}
		pending = append(pending, int32(cid))
		far := base + placed*fw - shift // where this one goes in, less the shifts so far
		if j > 0 {
			far = max(far, int(reach[j-1]))
		}
		reach = append(reach, int32(far))
	}
	settle(math.MaxInt)
	for ; p < len(old); p++ {
		c.Cells[old[p]].X += int32(len(xs) * fw)
		out[n] = old[p]
		n++
	}
	c.Rows[r].Cells = out
	for _, cid := range out[firstMoved:] {
		cell := &c.Cells[cid]
		for _, pid := range cell.Pins {
			c.Pins[pid].X = cell.X + c.Pins[pid].Offset
		}
	}
	// Fake pins have no cell; each moves once per insertion it was at or
	// right of, and those are always a prefix of the row's insertions.
	if r < len(c.fakeByRow) {
		for _, pid := range c.fakeByRow[r] {
			x0 := c.Pins[pid].X
			c.Pins[pid].X += int32(fw * sort.Search(len(reach), func(j int) bool { return reach[j] > x0 }))
		}
	}
}

// NetBBox returns the bounding box of net n's pins (x by row index). It
// panics for a pinless net.
func (c *Circuit) NetBBox(n int) geom.Rect {
	pins := c.Nets[n].Pins
	if len(pins) == 0 {
		panic(fmt.Sprintf("circuit: net %d has no pins", n)) //lint:allow panic-in-library documented contract: NetBBox of a pinless net is a caller bug
	}
	pts := make([]geom.Point, len(pins))
	for i, pid := range pins {
		pts[i] = c.Pins[pid].Point()
	}
	return geom.RectFromPoints(pts)
}

// Stats summarizes a circuit the way the paper's Table 1 does.
type Stats struct {
	Name     string
	Rows     int
	Cells    int // placement cells, excluding inserted feedthroughs
	Feeds    int // inserted feedthrough cells
	Pins     int // pins on placement cells (excluding feedthrough and fake pins)
	Nets     int
	MaxDeg   int // largest net degree
	AvgDeg   float64
	CoreW    int
	TotalPin int // all pins including feedthrough and fake pins
}

// ComputeStats gathers summary statistics.
func (c *Circuit) ComputeStats() Stats {
	s := Stats{Name: c.Name, Rows: len(c.Rows), Nets: len(c.Nets), CoreW: c.CoreWidth()}
	for i := range c.Cells {
		if c.Cells[i].Feed {
			s.Feeds++
		} else {
			s.Cells++
		}
	}
	for i := range c.Pins {
		p := &c.Pins[i]
		s.TotalPin++
		if !p.Fake && p.Cell != NoCell && !c.Cells[p.Cell].Feed {
			s.Pins++
		}
	}
	deg := 0
	for i := range c.Nets {
		d := len(c.Nets[i].Pins)
		deg += d
		if d > s.MaxDeg {
			s.MaxDeg = d
		}
	}
	if len(c.Nets) > 0 {
		s.AvgDeg = float64(deg) / float64(len(c.Nets))
	}
	return s
}

// Fork returns a circuit that shares c's Cells, Pins and id lists and copies
// only the Rows and Nets headers (and the fake-pin index's outer slice).
// Every slice it hands out is capped at its length, so the first append
// copies out: InsertFeedthroughRows, InsertFeedthrough, AddFakePin and
// appending to a net's pin list are fork-safe and leave c as it was.
func (c *Circuit) Fork() *Circuit {
	out := *c
	out.Cells, out.Pins = slices.Clip(c.Cells), slices.Clip(c.Pins)
	out.Rows, out.Nets, out.fakeByRow = slices.Clone(c.Rows), slices.Clone(c.Nets), slices.Clone(c.fakeByRow)
	for i := range out.Rows {
		out.Rows[i].Cells = slices.Clip(out.Rows[i].Cells)
	}
	for i := range out.Nets {
		out.Nets[i].Pins = slices.Clip(out.Nets[i].Pins)
	}
	for r := range out.fakeByRow {
		out.fakeByRow[r] = slices.Clip(out.fakeByRow[r])
	}
	return &out
}

// Clone returns a deep copy of the circuit, for writes Fork does not cover.
// It runs on the calling goroutine: the copies are bound by memory bandwidth
// and page faults, and a pool measured no faster (DESIGN §9).
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{
		Name:       c.Name,
		CellHeight: c.CellHeight,
		FeedWidth:  c.FeedWidth,
		Rows:       make([]Row, len(c.Rows)),
		Cells:      slices.Clone(c.Cells),
		Pins:       slices.Clone(c.Pins), // pointer-free: copied into unzeroed memory
		Nets:       make([]Net, len(c.Nets)),
	}
	out.fakeByRow = slices.Clone(c.fakeByRow)
	for row, ids := range out.fakeByRow {
		out.fakeByRow[row] = slices.Clone(ids)
	}
	// Shared backing arrays keep the clone at a handful of allocations.
	total := 0
	for i := range c.Rows {
		total += len(c.Rows[i].Cells)
	}
	for i := range c.Cells {
		total += len(c.Cells[i].Pins)
	}
	for i := range c.Nets {
		total += len(c.Nets[i].Pins)
	}
	// Full slice expressions cap every sub-slice at its own length so a
	// later append (feedthrough insertion grows row and net lists) copies
	// out instead of clobbering the neighbor's region.
	backing := make([]int32, 0, total)
	take := func(src []int32) []int32 {
		lo := len(backing)
		backing = append(backing, src...)
		return backing[lo:len(backing):len(backing)]
	}
	for i := range c.Rows {
		out.Rows[i] = Row{Cells: take(c.Rows[i].Cells)}
	}
	for i := range c.Cells {
		out.Cells[i].Pins = take(c.Cells[i].Pins)
	}
	for i := range c.Nets {
		out.Nets[i] = Net{Name: c.Nets[i].Name, Pins: take(c.Nets[i].Pins)}
	}
	return out
}

// Validate checks internal consistency: row/cell/pin/net cross-references,
// cell ordering and non-overlap within rows, and pin position coherence.
// It returns the first problem found, or nil. It is linear: the walk of
// each row marks the cells it lists, and a walk of the nets marks the pins
// they list, so no membership check scans a list.
func (c *Circuit) Validate() error {
	listed := make([]bool, max(len(c.Cells), len(c.Pins)))
	for r := range c.Rows {
		x := -1 << 60
		for _, cid := range c.Rows[r].Cells {
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
			listed[cid] = true // in the row it claims, checked above
		}
	}
	for i := range c.Cells {
		cell := &c.Cells[i]
		if cell.Row < 0 || int(cell.Row) >= len(c.Rows) {
			return fmt.Errorf("cell %d has row %d out of range", i, cell.Row)
		}
		if !listed[i] {
			return fmt.Errorf("cell %d missing from its row %d", i, cell.Row)
		}
		for _, pid := range cell.Pins {
			if pid < 0 || int(pid) >= len(c.Pins) {
				return fmt.Errorf("cell %d references pin %d out of range", i, pid)
			}
			if int(c.Pins[pid].Cell) != i {
				return fmt.Errorf("pin %d on cell %d claims cell %d", pid, i, c.Pins[pid].Cell)
			}
		}
	}
	clear(listed)
	for n := range c.Nets {
		for _, pid := range c.Nets[n].Pins {
			if pid >= 0 && int(pid) < len(c.Pins) && int(c.Pins[pid].Net) == n {
				listed[pid] = true
			}
		}
	}
	for i := range c.Pins {
		p := &c.Pins[i]
		if p.Row < 0 || int(p.Row) >= len(c.Rows) {
			return fmt.Errorf("pin %d has row %d out of range", i, p.Row)
		}
		if p.Cell != NoCell {
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
		if p.Net != NoNet {
			if p.Net < 0 || int(p.Net) >= len(c.Nets) {
				return fmt.Errorf("pin %d has net %d out of range", i, p.Net)
			}
			if !listed[i] {
				return fmt.Errorf("pin %d missing from its net %d", i, p.Net)
			}
		}
	}
	for i := range c.Nets {
		for _, pid := range c.Nets[i].Pins {
			if pid < 0 || int(pid) >= len(c.Pins) {
				return fmt.Errorf("net %d references pin %d out of range", i, pid)
			}
			if int(c.Pins[pid].Net) != i {
				return fmt.Errorf("pin %d in net %d claims net %d", pid, i, c.Pins[pid].Net)
			}
		}
	}
	return c.checkRoom()
}

// feedRoom bounds the feedthroughs one route of c inserts, in all and so
// into any one row: this is the one bound the int32 pin fields rest on. Each
// feedthrough is a crossing of a row by a tree segment; a segment crosses
// only rows of its net's span; and a net of k pins has k-1 segments in a
// serial or net-wise route and at most 3(k-1) in one block of a row-wise or
// hybrid route, which adds at most two boundary fake pins per segment of the
// net's whole tree. Past MaxCoord it returns MaxCoord+1.
func (c *Circuit) feedRoom() int {
	room := 0
	for n := range c.Nets {
		if pins := c.Nets[n].Pins; len(pins) >= 2 {
			lo, hi := c.Pins[pins[0]].Row, c.Pins[pins[0]].Row
			for _, pid := range pins[1:] {
				lo, hi = min(lo, c.Pins[pid].Row), max(hi, c.Pins[pid].Row)
			}
			if room += 3 * min((len(pins)-1)*(int(hi)-int(lo)+1), MaxCoord); room > MaxCoord {
				return MaxCoord + 1
			}
		}
	}
	return room
}

// checkRoom is Validate's int32 check: with feedRoom's feedthroughs
// inserted, a route's cell and pin tables (pins, at most two fake pins per
// pin, and the feedthroughs') and every x, moved right by FeedWidth per
// feedthrough, must stay at or below MaxCoord.
func (c *Circuit) checkRoom() error {
	if c.FeedWidth < 0 || c.FeedWidth > MaxCoord {
		return fmt.Errorf("feedthrough width %d outside [0, %d]", c.FeedWidth, MaxCoord)
	}
	room := 0
	if len(c.Pins) <= MaxCoord/3 {
		room = c.feedRoom()
	}
	if len(c.Rows) > MaxCoord || len(c.Nets) > MaxCoord || 3*len(c.Pins)+room > MaxCoord || len(c.Cells)+room > MaxCoord {
		return fmt.Errorf("%d rows, %d cells, %d nets and %d pins with room for %d feedthroughs overflow int32 pin fields",
			len(c.Rows), len(c.Cells), len(c.Nets), len(c.Pins), room)
	}
	limit := MaxCoord - c.FeedWidth*room // the largest x a pin or cell edge may have
	for i := range c.Cells {
		if cell := &c.Cells[i]; cell.X < 0 || int(cell.X) > limit-int(cell.Width) {
			return fmt.Errorf("cell %d spans x %d to %d outside [0, %d], the room for %d feedthroughs of width %d",
				i, cell.X, cell.X+cell.Width, limit, room, c.FeedWidth)
		}
	}
	for i := range c.Pins {
		if p := &c.Pins[i]; p.X < 0 || int(p.X) > limit {
			return fmt.Errorf("pin %d (cell %d) at x %d outside [0, %d], the room for %d feedthroughs of width %d",
				i, p.Cell, p.X, limit, room, c.FeedWidth)
		}
	}
	return nil
}

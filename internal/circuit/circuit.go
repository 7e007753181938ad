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
	"cmp"
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
	if s <= Both {
		return [...]string{"bottom", "top", "both"}[s]
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

// Cell is a placed standard cell (or an inserted feedthrough cell). Its
// pins are Circuit.CellPins(id).
type Cell struct {
	Row   int32
	X     int32 // left edge
	Width int32
	Feed  bool // true for feedthrough cells inserted by the router
}

// Net is a set of electrically connected pins, Circuit.NetPins(n), named
// Circuit.NetName(n). The record holds nothing: the lists live in the
// Circuit's flat arrays, so a table of nets holds no pointer.
type Net struct{}

// Row is an ordered strip of cells, Circuit.RowCells(r), left to right.
// Like Net, it holds nothing of its own.
type Row struct{}

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

	// The id lists (csr) and the net names, end to end in names with net
	// n's at names[nameOff[n]:nameOff[n+1]]. No record holds a slice, so a
	// collection marks a handful of headers per circuit copy rather than
	// one per row, cell and net. rowFakes lists each row's fake pins, so
	// feedthrough insertion can shift them along with the row's cells. (The
	// paper keeps fake pins frozen; see DESIGN.md for why this reproduction
	// tracks the shift.)
	rowCells, cellPins, netPins, rowFakes csr
	names                                 []byte
	nameOff                               []int32
}

// csr holds one id list per record in compressed sparse row form: record
// i's list is v[off[i]:off[i+1]]. Records past the end of off have empty
// lists, so a table can grow before its lists do. Only construction
// (AddCell, AddPin; AddNet for the names) writes in place; every other
// writer builds fresh arrays, so a Fork shares them all.
type csr struct {
	off []int32
	v   []int32
}

// end is where the lists of records before i end in v.
func (l csr) end(i int) int32 {
	if i < len(l.off) {
		return l.off[i]
	}
	return int32(len(l.v))
}

// at returns record i's list, capped at its length.
func (l csr) at(i int) []int32 {
	if i+1 >= len(l.off) {
		return nil
	}
	lo, hi := l.off[i], l.off[i+1]
	return l.v[lo:hi:hi]
}

// add appends id to record i's list in place (construction only).
func (l *csr) add(i int, id int32) {
	for len(l.off) < i+2 {
		l.off = append(l.off, l.end(len(l.off)))
	}
	l.v = slices.Insert(l.v, int(l.off[i+1]), id)
	for j := i + 1; j < len(l.off); j++ {
		l.off[j]++
	}
}

// appended returns l over n records with m ids added, in fresh arrays: for
// k in order, add(k) names a list (none when negative) and the id to put at
// its end. It calls add twice per k, and returns l itself if no id lands.
// The old lists move in runs, one copy between two lists that gain.
func (l csr) appended(n, m int, add func(k int) (list int, id int32)) csr {
	gain, listed := make([]int32, n), 0
	for k := 0; k < m; k++ {
		if i, _ := add(k); i >= 0 {
			gain[i]++
			listed++
		}
	}
	if listed == 0 {
		return l
	}
	out := csr{off: make([]int32, n+1), v: make([]int32, int(l.end(n))+listed)}
	src, dst := int32(0), int32(0) // old lists up to src are at out.v[:dst]
	for i, g := range gain {
		if g > 0 {
			e := l.end(i + 1)
			dst += int32(copy(out.v[dst:], l.v[src:e]))
			src, gain[i], dst = e, dst, dst+g // gain[i] is now list i's cursor
		}
		out.off[i+1] = l.end(i+1) + dst - src
	}
	copy(out.v[dst:], l.v[src:l.end(n)])
	for k := 0; k < m; k++ {
		if i, id := add(k); i >= 0 {
			out.v[gain[i]] = id
			gain[i]++
		}
	}
	return out
}

func (l csr) clone() csr { return csr{off: slices.Clone(l.off), v: slices.Clone(l.v)} }

// RowCells returns row r's cell IDs, left to right.
func (c *Circuit) RowCells(r int) []int32 { return c.rowCells.at(r) }

// CellPins returns the IDs of the pins on cell id, in ID order.
func (c *Circuit) CellPins(id int) []int32 { return c.cellPins.at(id) }

// NetPins returns net n's pin IDs: its construction pins in ID order, then
// the pins bound or added to it since, in the order they came. The slice is
// the circuit's own, for reading only.
func (c *Circuit) NetPins(n int) []int32 { return c.netPins.at(n) }

// NetName returns net n's name.
func (c *Circuit) NetName(n int) string {
	if n+1 >= len(c.nameOff) {
		return ""
	}
	return string(c.names[c.nameOff[n]:c.nameOff[n+1]])
}

// NumChannels returns the number of routing channels (rows + 1).
func (c *Circuit) NumChannels() int { return len(c.Rows) + 1 }

// RowWidth returns the occupied width of row r (right edge of its last
// cell), or 0 for an empty row.
func (c *Circuit) RowWidth(r int) int {
	cells := c.RowCells(r)
	if len(cells) == 0 {
		return 0
	}
	last := &c.Cells[cells[len(cells)-1]]
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
// Like AddNet and AddPin, it is construction-time only: it writes the
// circuit's arrays in place, which a Fork shares.
func (c *Circuit) AddCell(r, width int) int {
	id := len(c.Cells)
	c.Cells = append(c.Cells, Cell{Row: int32(r), X: int32(c.RowWidth(r)), Width: int32(width)})
	c.rowCells.add(r, int32(id))
	return id
}

// AddNet appends an empty net and returns its ID.
func (c *Circuit) AddNet(name string) int {
	for len(c.nameOff) <= len(c.Nets) {
		c.nameOff = append(c.nameOff, int32(len(c.names)))
	}
	c.Nets = append(c.Nets, Net{})
	c.names = append(c.names, name...)
	c.nameOff = append(c.nameOff, int32(len(c.names)))
	return len(c.Nets) - 1
}

// AddPin creates a pin on cell cellID at the given offset and side and
// attaches it to net netID (which may be NoNet). It returns the pin ID.
// Construction-time only; AddPins is the bulk and fork-safe form.
func (c *Circuit) AddPin(cellID, netID, offset int, side Side) int {
	cell := &c.Cells[cellID]
	id := len(c.Pins)
	c.Pins = append(c.Pins, Pin{
		Net: int32(netID), Cell: int32(cellID), Offset: int32(offset),
		X: cell.X + int32(offset), Row: cell.Row, Side: side,
	})
	c.cellPins.add(cellID, int32(id))
	if netID != NoNet {
		c.netPins.add(netID, int32(id))
	}
	return id
}

// AddFakePin creates a cell-less pin at absolute position (x, row) attached
// to net netID. Fake pins represent a net's crossing point on a partition
// boundary; they are reachable from the side's channel only.
func (c *Circuit) AddFakePin(netID, x, row int, side Side) int {
	return c.AddPins([]Pin{{Net: int32(netID), Cell: NoCell, X: int32(x), Row: int32(row), Side: side}})
}

// AddPins appends pins, each at the end of its cell's and net's list in
// order, and returns the first one's ID. A pin on a cell takes its X and
// Row from the cell and its Offset; one with Cell NoCell is a fake pin at
// its own X and Row. All is written to fresh arrays, so AddPins on a Fork
// leaves the parent as it was.
func (c *Circuit) AddPins(pins []Pin) int {
	first := len(c.Pins)
	c.Pins = append(c.Pins[:first:first], pins...)
	c.listPins(first)
	return first
}

// listPins completes the pins c.Pins[first:], which are fresh in c's table,
// and lists them under their cells, nets and (fake pins) rows.
func (c *Circuit) listPins(first int) {
	added := c.Pins[first:]
	for i := range added {
		if p := &added[i]; p.Cell != NoCell {
			cell := &c.Cells[p.Cell]
			p.X, p.Row, p.Fake = cell.X+p.Offset, cell.Row, false
		} else {
			p.Fake = true
		}
	}
	c.cellPins = c.cellPins.appended(len(c.Cells), len(added), func(k int) (int, int32) { return int(added[k].Cell), int32(first + k) })
	c.netPins = c.netPins.appended(len(c.Nets), len(added), func(k int) (int, int32) { return int(added[k].Net), int32(first + k) })
	c.rowFakes = c.rowFakes.appended(len(c.Rows), len(added), func(k int) (int, int32) {
		if added[k].Fake {
			return int(added[k].Row), int32(first + k)
		}
		return -1, 0
	})
}

// BindPins attaches pins[k] to net nets[k], each at the end of its net's
// list, in order. The net lists go to fresh arrays, but the pins' Net is
// written in place: the pins must be ones this circuit inserted, whose
// insertion copied the pin table out of any parent.
func (c *Circuit) BindPins(pins, nets []int32) {
	for k, pid := range pins {
		c.Pins[pid].Net = nets[k]
	}
	c.netPins = c.netPins.appended(len(c.Nets), len(pins), func(k int) (int, int32) { return int(nets[k]), pins[k] })
}

// InsertFeedthrough inserts a feedthrough cell into row r as close as
// possible to x, shifting every cell at or right of the insertion point
// (and the pins on them, and the row's fake pins) by the feedthrough width.
// It returns the ID of the feedthrough's pin, which is attached to net
// netID. It is InsertFeedthroughRows with one request, for the rare late
// insertion: each call rebuilds every table and list it writes.
func (c *Circuit) InsertFeedthrough(r, x, netID int) int {
	off := make([]int, len(c.Rows)+1)
	for i := r + 1; i < len(off); i++ {
		off[i] = 1
	}
	pinID, err := c.InsertFeedthroughRows(off, []int{x}, func(rows int, walk func(r int)) {
		for i := 0; i < rows; i++ {
			walk(i)
		}
	})
	if err != nil {
		panic(err) //lint:allow panic-in-library documented contract: a row out of range is a caller bug
	}
	if netID != NoNet {
		c.BindPins([]int32{int32(pinID)}, []int32{int32(netID)})
	}
	return pinID
}

// InsertFeedthroughRows inserts len(xs) net-less feedthrough cells at once:
// row r receives one at each x of xs[off[r]:off[r+1]] (off is a prefix sum
// over the rows), and the result — row order, every cell, every pin — is
// exactly what inserting the entries one at a time, in order, would leave.
// The feedthrough for xs[i] gets cell ID first cell + i and pin ID
// firstPin + i, so callers address the new pins by position.
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
// untouched. Cells, Pins and the row and cell lists are rebuilt into fresh
// arrays: on a Fork, this is the copy at the first write.
func (c *Circuit) InsertFeedthroughRows(off, xs []int, forRows func(rows int, walk func(r int))) (firstPin int, err error) {
	rows := len(c.Rows)
	if len(off) != rows+1 || off[0] != 0 || off[rows] != len(xs) {
		return 0, fmt.Errorf("circuit: feedthrough offsets do not cover %d rows and %d positions", rows, len(xs))
	}
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
	}
	firstCell, firstPin := len(c.Cells), len(c.Pins)
	if len(xs) == 0 {
		return firstPin, nil
	}
	// Grown from length-capped slices: always into fresh arrays (a circuit
	// value copied before this call keeps its own), and without first
	// zeroing the pointer-free records that the copy overwrites.
	c.Cells = slices.Grow(c.Cells[:firstCell:firstCell], len(xs))[:firstCell+len(xs)]
	c.Pins = slices.Grow(c.Pins[:firstPin:firstPin], len(xs))[:firstPin+len(xs)]
	// Feedthrough i is cell firstCell+i, whose one pin is firstPin+i; a row
	// list grows by its row's requests.
	c.cellPins = c.cellPins.appended(firstCell+len(xs), len(xs), func(i int) (int, int32) { return firstCell + i, int32(firstPin + i) })
	old := c.rowCells
	c.rowCells = csr{off: make([]int32, rows+1), v: make([]int32, int(old.end(rows))+len(xs))}
	for r := 0; r < rows; r++ {
		c.rowCells.off[r+1] = c.rowCells.off[r] + int32(len(old.at(r))+off[r+1]-off[r])
	}
	scratch := make([]int32, 2*len(xs)) // two slots per request
	forRows(rows, func(r int) {
		if lo, hi := off[r], off[r+1]; hi > lo {
			c.walkRow(r, old.at(r), xs[lo:hi], firstCell+lo, firstPin+lo, scratch[2*lo:2*hi])
		} else {
			copy(c.RowCells(r), old.at(r))
		}
	})
	return firstPin, nil
}

// walkRow is the one-row walk of InsertFeedthroughRows: row r's cells, old,
// and the new feedthroughs (cell IDs cell0.., pin IDs pin0..) are written
// to the row's new list left to right with their final positions. scratch
// has two slots per x.
func (c *Circuit) walkRow(r int, old []int32, xs []int, cell0, pin0 int, scratch []int32) {
	out := c.RowCells(r)
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
		c.Cells[cid] = Cell{Row: int32(r), Width: int32(fw), Feed: true}
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
	for _, cid := range out[firstMoved:] {
		cell := &c.Cells[cid]
		for _, pid := range c.CellPins(int(cid)) {
			c.Pins[pid].X = cell.X + c.Pins[pid].Offset
		}
	}
	// Fake pins have no cell; each moves once per insertion it was at or
	// right of, and those are always a prefix of the row's insertions.
	for _, pid := range c.rowFakes.at(r) {
		x0 := c.Pins[pid].X
		c.Pins[pid].X += int32(fw * sort.Search(len(reach), func(j int) bool { return reach[j] > x0 }))
	}
}

// NetBBox returns the bounding box of net n's pins (x by row index). It
// panics for a pinless net.
func (c *Circuit) NetBBox(n int) geom.Rect {
	pins := c.NetPins(n)
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
		d := len(c.NetPins(i))
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

// Block returns rows lo..hi of c as a circuit of their own, the one a rank
// of the row partition routes, with the fake pins fakes (Cell NoCell) after
// the block's own. The other rows stay, empty, so row and channel indices
// and net IDs stay global; cells are re-issued in row order and pins in c's
// order, and each net lists its pins in c's order, then its fakes. It
// shares c's net names and nothing else. Each list is written once, at its
// place: the cells' from the block's rows, the nets' in one walk of c's.
func (c *Circuit) Block(lo, hi int, fakes []Pin) *Circuit {
	first, end := c.rowCells.end(lo), c.rowCells.end(hi+1)
	cells := c.rowCells.v[first:end] // the block's cells, row by row
	sub := &Circuit{
		Name: c.Name, CellHeight: c.CellHeight, FeedWidth: c.FeedWidth,
		Rows: make([]Row, len(c.Rows)), Nets: make([]Net, len(c.Nets)), Cells: make([]Cell, len(cells)),
		rowCells: csr{off: make([]int32, len(c.Rows)+1), v: make([]int32, len(cells))},
		cellPins: csr{off: make([]int32, len(cells)+1)},
		netPins:  csr{off: make([]int32, len(c.Nets)+1)},
		names:    c.names, nameOff: c.nameOff,
	}
	for r := range c.Rows {
		sub.rowCells.off[r+1] = min(max(c.rowCells.end(r+1), first), end) - first
	}
	// at[pid] is zero for a pin off the block; for one on it, its new cell's
	// ID plus one, then, from the walk of c's pins on, its own new ID plus one.
	at := make([]int32, len(c.Pins))
	for j, cid := range cells {
		sub.rowCells.v[j], sub.Cells[j] = int32(j), c.Cells[cid]
		for _, pid := range c.CellPins(int(cid)) {
			at[pid] = int32(j + 1)
		}
		sub.cellPins.off[j+1] = sub.cellPins.off[j] + int32(len(c.CellPins(int(cid))))
	}
	pins := int(sub.cellPins.off[len(cells)])
	sub.Pins = make([]Pin, 0, pins+len(fakes))
	for pid, id := range at {
		if id != 0 {
			sub.Pins = append(sub.Pins, c.Pins[pid])
			sub.Pins[len(sub.Pins)-1].Cell, at[pid] = id-1, int32(len(sub.Pins))
		}
	}
	sub.cellPins.v = make([]int32, pins)
	for j, cid := range cells {
		for i, pid := range c.CellPins(int(cid)) { // at grows with the ID: the list stays in order
			sub.cellPins.v[int(sub.cellPins.off[j])+i] = at[pid] - 1
		}
	}
	// The fakes are few: a counting pass over the rows lists them by row,
	// and byNet, their IDs sorted stably by net, after each net's pins.
	sub.Pins = append(sub.Pins, fakes...)
	sub.rowFakes = csr{}.appended(len(c.Rows), len(fakes), func(k int) (int, int32) { return int(fakes[k].Row), int32(pins + k) })
	byNet, f := make([]int32, len(fakes)), 0
	for k := range byNet {
		byNet[k], sub.Pins[pins+k].Fake = int32(pins+k), true
	}
	slices.SortStableFunc(byNet, func(a, b int32) int { return cmp.Compare(sub.Pins[a].Net, sub.Pins[b].Net) })
	for f < len(byNet) && sub.Pins[byNet[f]].Net == NoNet {
		f++
	}
	sub.netPins.v = make([]int32, 0, len(sub.Pins))
	for n := range c.Nets {
		for _, pid := range c.NetPins(n) {
			if id := at[pid]; id != 0 {
				sub.netPins.v = append(sub.netPins.v, id-1)
			}
		}
		for ; f < len(byNet) && int(sub.Pins[byNet[f]].Net) == n; f++ {
			sub.netPins.v = append(sub.netPins.v, byNet[f])
		}
		sub.netPins.off[n+1] = int32(len(sub.netPins.v))
	}
	return sub
}

// Fork returns a circuit that shares every table and array of c. Every
// writer but construction builds fresh arrays (InsertFeedthroughRows,
// InsertFeedthrough, AddPins, AddFakePin, BindPins) or writes only the
// records of pins and cells it inserted itself, so a fork's writes leave c
// as it was.
func (c *Circuit) Fork() *Circuit {
	out := *c
	return &out
}

// Clone returns a deep copy of the circuit, for writes Fork does not cover.
// It runs on the calling goroutine: the copies are bound by memory bandwidth
// and page faults, and a pool measured no faster (DESIGN §9).
func (c *Circuit) Clone() *Circuit {
	out := *c
	out.Rows, out.Nets = slices.Clone(c.Rows), slices.Clone(c.Nets)
	out.Cells, out.Pins = slices.Clone(c.Cells), slices.Clone(c.Pins) // pointer-free: copied into unzeroed memory
	out.rowCells, out.cellPins, out.netPins, out.rowFakes = c.rowCells.clone(), c.cellPins.clone(), c.netPins.clone(), c.rowFakes.clone()
	out.names, out.nameOff = slices.Clone(c.names), slices.Clone(c.nameOff)
	return &out
}

// Validate checks internal consistency: row/cell/pin/net cross-references,
// cell ordering and non-overlap within rows, pin sides, and pin position
// coherence.
// It returns the first problem found, or nil. It is linear: the walk of
// each row marks the cells it lists, and a walk of the nets marks the pins
// they list, so no membership check scans a list.
func (c *Circuit) Validate() error {
	listed := make([]bool, max(len(c.Cells), len(c.Pins)))
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
		for _, pid := range c.CellPins(i) {
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
		for _, pid := range c.NetPins(n) {
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
		if p.Side > Both {
			return fmt.Errorf("pin %d has side %d outside {bottom, top, both}", i, p.Side)
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
		for _, pid := range c.NetPins(i) {
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
		if pins := c.NetPins(n); len(pins) >= 2 {
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

// Package grid implements the coarse global-routing grid of TWGR's step 2.
//
// The core is cut into vertical columns of ColWidth x units. For every
// routing channel the grid tracks how many horizontal wire runs cross each
// column (channel density), and for every cell row it tracks how many
// vertical runs cross the row at each column (feedthrough demand). Both are
// plain counters, so grids from different workers can be summed — that is
// exactly the synchronization the net-wise parallel algorithm performs.
//
// Each counter family is a Table: slabs of BandRows channels (or rows)
// created on first write, so a parallel rank whose sub-circuit only populates
// its own row block pays for its band of the grid, not the whole design.
//
// Cost queries use the standard incremental sum-of-squares congestion
// proxy: adding a wire to a column of density d costs 2d+1 (the increase of
// d^2), so minimizing total cost approximately minimizes peak density.
// Feedthrough demand uses the same form on top of a per-crossing base cost,
// making clustered feedthroughs (which stretch a row) progressively more
// expensive.
package grid

import (
	"fmt"

	"parroute/internal/geom"
)

// ColWidth is the column width, in x units, the router cuts the core into:
// the quantum of its coarse grid and of its channel occupancy.
const ColWidth = 16

// Grid holds channel-density and feedthrough-demand counters.
type Grid struct {
	Rows     int // cell rows
	Channels int // Rows + 1
	Cols     int
	ColWidth int

	// dens holds the per-column horizontal-run counts by channel, ft the
	// per-column vertical-run counts by row.
	dens, ft Table
}

// New returns an empty grid for a core of the given width and row count.
// colWidth must be positive; width is rounded up to a whole column.
func New(rows, coreWidth, colWidth int) *Grid {
	if colWidth <= 0 {
		// Constructor contract: the router passes ColWidth and tests their
		// own quanta, so this is a programmer error, not a data condition.
		panic(fmt.Sprintf("grid: colWidth %d must be positive", colWidth)) //lint:allow panic-in-library documented constructor invariant
	}
	if coreWidth < 1 {
		coreWidth = 1
	}
	cols := (coreWidth + colWidth - 1) / colWidth
	if cols < 1 {
		cols = 1
	}
	return &Grid{
		Rows: rows, Channels: rows + 1, Cols: cols, ColWidth: colWidth,
		dens: NewTable(rows+1, cols), ft: NewTable(rows, cols),
	}
}

// Reserve creates the slabs of channels lo..hi and of the rows among them,
// so that goroutines writing different channels of one slab do not race to
// create it.
func (g *Grid) Reserve(lo, hi int) {
	g.dens.Reserve(lo, hi)
	g.ft.Reserve(lo, hi)
}

// ColOf maps an x coordinate to its column, clamping out-of-core values.
func (g *Grid) ColOf(x int) int {
	return geom.Clamp(x/g.ColWidth, 0, g.Cols-1)
}

// ColCenter returns the x coordinate of the center of a column.
func (g *Grid) ColCenter(col int) int {
	return col*g.ColWidth + g.ColWidth/2
}

// clampCol clamps a column index into the grid. The vertical APIs accept
// raw columns (unlike the horizontal ones, which go through ColOf), and a
// pin sitting exactly on the core's right edge maps to coreWidth/ColWidth
// == Cols when the width is a whole number of columns — one past the last
// column. Clamping mirrors ColOf so boundary pins land in the edge column
// instead of the next row's counters.
func (g *Grid) clampCol(col int) int {
	return geom.Clamp(col, 0, g.Cols-1)
}

// AddHoriz adjusts the density of channel ch over the x interval iv by
// delta (use -1 to remove a previously added run). Empty intervals are
// no-ops; a zero-length interval still occupies one column.
func (g *Grid) AddHoriz(ch int, iv geom.Interval, delta int32) {
	if iv.Empty() {
		return
	}
	lo, hi := g.ColOf(int(iv.Lo)), g.ColOf(int(iv.Hi))
	row := g.dens.RowMut(ch)
	for col := lo; col <= hi; col++ {
		row[col] += delta
	}
}

// AddVert adjusts feedthrough demand at column col for rows rowLo..rowHi
// (inclusive) by delta.
func (g *Grid) AddVert(rowLo, rowHi, col int, delta int32) {
	col = g.clampCol(col)
	for row := rowLo; row <= rowHi; row++ {
		g.ft.RowMut(row)[col] += delta
	}
}

// HorizAddCost returns the congestion cost of adding a horizontal run to
// channel ch over iv: sum of 2d+1 over the covered columns.
func (g *Grid) HorizAddCost(ch int, iv geom.Interval) int64 {
	if iv.Empty() {
		return 0
	}
	lo, hi := g.ColOf(int(iv.Lo)), g.ColOf(int(iv.Hi))
	row := g.dens.Row(ch)
	var cost int64
	for col := lo; col <= hi; col++ {
		cost += 2*int64(row[col]) + 1
	}
	return cost
}

// VertAddCost returns the cost of adding a vertical run through rows
// rowLo..rowHi at column col: per crossed row, ftBase plus the clustering
// penalty 2d (the sum-of-squares increment scaled into the same units).
func (g *Grid) VertAddCost(rowLo, rowHi, col int, ftBase int64) int64 {
	col = g.clampCol(col)
	var cost int64
	for row := rowLo; row <= rowHi; row++ {
		cost += ftBase + 2*int64(g.ft.Row(row)[col])
	}
	return cost
}

// SpanCost returns the congestion-cost delta of moving a horizontal run
// over iv from channel from to channel to, with the run still counted in
// from: per covered column, the add cost 2*d_to+1 minus the removal credit
// 2*d_from-1. It equals HorizAddCost(to)-HorizAddCost(from) evaluated with
// the run removed, but in a single walk and without mutating the grid —
// the incremental form of the step-2 L-flip evaluation.
func (g *Grid) SpanCost(from, to int, iv geom.Interval) int64 {
	if iv.Empty() || from == to {
		return 0
	}
	lo, hi := g.ColOf(int(iv.Lo)), g.ColOf(int(iv.Hi))
	fromRow, toRow := g.dens.Row(from), g.dens.Row(to)
	var cost int64
	for col := lo; col <= hi; col++ {
		cost += 2 * (int64(toRow[col]) - int64(fromRow[col]) + 1)
	}
	return cost
}

// MoveWire moves a horizontal run over iv from channel from to channel to,
// the mutation matching a negative SpanCost.
func (g *Grid) MoveWire(from, to int, iv geom.Interval) {
	if iv.Empty() || from == to {
		return
	}
	lo, hi := g.ColOf(int(iv.Lo)), g.ColOf(int(iv.Hi))
	fromRow, toRow := g.dens.RowMut(from), g.dens.RowMut(to)
	for col := lo; col <= hi; col++ {
		fromRow[col]--
		toRow[col]++
	}
}

// VertMoveCost returns the cost delta of moving a vertical run crossing
// rows rowLo..rowHi from column fromCol to column toCol, with the run
// still counted at fromCol. The ftBase term is crossed-row count times
// ftBase on both sides, so it cancels; only the clustering penalty
// remains: per row, 2*(ft_to - ft_from + 1).
func (g *Grid) VertMoveCost(rowLo, rowHi, fromCol, toCol int) int64 {
	fromCol, toCol = g.clampCol(fromCol), g.clampCol(toCol)
	if fromCol == toCol {
		return 0
	}
	var cost int64
	for row := rowLo; row <= rowHi; row++ {
		r := g.ft.Row(row)
		cost += 2 * (int64(r[toCol]) - int64(r[fromCol]) + 1)
	}
	return cost
}

// MoveVert moves a vertical run crossing rows rowLo..rowHi from column
// fromCol to column toCol.
func (g *Grid) MoveVert(rowLo, rowHi, fromCol, toCol int) {
	fromCol, toCol = g.clampCol(fromCol), g.clampCol(toCol)
	if fromCol == toCol {
		return
	}
	for row := rowLo; row <= rowHi; row++ {
		r := g.ft.RowMut(row)
		r[fromCol]--
		r[toCol]++
	}
}

// FtDemand returns the feedthrough demand at (row, col).
func (g *Grid) FtDemand(row, col int) int { return int(g.ft.Row(row)[col]) }

// Density returns the horizontal-run count of channel ch at col.
func (g *Grid) Density(ch, col int) int { return int(g.dens.Row(ch)[col]) }

// DensCounts returns a flat channel-major copy of the density counters.
func (g *Grid) DensCounts() []int32 {
	out := make([]int32, g.Channels*g.Cols)
	for ch := 0; ch < g.Channels; ch++ {
		copy(out[ch*g.Cols:], g.dens.Row(ch))
	}
	return out
}

// Clone returns a deep copy. Slabs never written stay uncreated.
func (g *Grid) Clone() *Grid {
	out := *g
	out.dens, out.ft = g.dens.Clone(), g.ft.Clone()
	return &out
}

// TableLen is the number of counters in the grid's delta index space:
// densities channel-major, then feedthrough demand row-major.
func (g *Grid) TableLen() int { return g.dens.Len() + g.ft.Len() }

// AppendDelta is Table.AppendDelta over both tables in that index space;
// snap has TableLen entries.
func (g *Grid) AppendDelta(dst, snap []int32) []int32 {
	n := g.dens.Len()
	return g.ft.AppendDelta(g.dens.AppendDelta(dst, snap[:n], 0), snap[n:], n)
}

// ApplyDelta adds a delta that crossed the transport into the grid. The
// ascending pairs are cut where the feedthrough indices start, and both
// halves are checked before either is applied: a rejected delta leaves the
// grid and its slabs as they were.
func (g *Grid) ApplyDelta(pairs []int32) error {
	if len(pairs)%2 != 0 {
		return fmt.Errorf("delta length %d is odd", len(pairs))
	}
	n, cut := g.dens.Len(), 0
	for cut < len(pairs) && int(pairs[cut]) < n {
		cut += 2
	}
	if err := g.dens.CheckDelta(pairs[:cut], 0); err != nil {
		return err
	}
	if err := g.ft.CheckDelta(pairs[cut:], n); err != nil {
		return err
	}
	g.dens.ApplyDelta(pairs[:cut], 0, nil)
	g.ft.ApplyDelta(pairs[cut:], n, nil)
	return nil
}

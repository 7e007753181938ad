// Package grid implements the coarse global-routing grid of TWGR's step 2.
//
// The core is cut into vertical columns of ColWidth x units. For every
// routing channel the grid tracks how many horizontal wire runs cross each
// column (channel density), and for every cell row it tracks how many
// vertical runs cross the row at each column (feedthrough demand). Both are
// plain counters, so grids from different workers can be summed — that is
// exactly the synchronization the net-wise parallel algorithm performs.
//
// The counters are sharded into row-band slabs (bandSize channels or rows
// per slab) that are allocated lazily on first write. A parallel rank whose
// sub-circuit only populates its own row block therefore pays for its band
// of the grid, not the whole design — the difference between O(rows) and
// O(rows/p) peak grid memory at million-cell scale.
//
// Cost queries use the standard incremental sum-of-squares congestion
// proxy: adding a wire to a column of density d costs 2d+1 (the increase of
// d^2), so minimizing total cost approximately minimizes peak density.
// Feedthrough demand uses the same form scaled by FtBase, making clustered
// feedthroughs (which stretch a row) progressively more expensive.
package grid

import (
	"fmt"

	"parroute/internal/geom"
)

// bandShift sets the slab granularity: 1<<bandShift channels (or rows) per
// lazily allocated band. A package constant so grids of equal shape always
// have aligned bands, letting AddFrom/SubFrom merge slab-wise.
const bandShift = 3

// BandRows is the number of channels (or rows) per slab. Goroutines that
// split a grid by channel cut it at multiples of BandRows, so that no two
// of them create the same slab.
const BandRows = 1 << bandShift

// Grid holds channel-density and feedthrough-demand counters.
type Grid struct {
	Rows     int // cell rows
	Channels int // Rows + 1
	Cols     int
	ColWidth int

	// dens[b] holds, channel-major, the per-column horizontal-run counts
	// of channels [b<<bandShift, (b+1)<<bandShift); ft[b] holds the
	// per-column vertical-run counts of the corresponding rows. A nil slab
	// means no counter in the band was ever written; reads resolve to the
	// shared zero row.
	dens [][]int32
	ft   [][]int32
	zero []int32
}

// New returns an empty grid for a core of the given width and row count.
// colWidth must be positive; width is rounded up to a whole column.
func New(rows, coreWidth, colWidth int) *Grid {
	if colWidth <= 0 {
		// Constructor contract: callers pass a validated Options quantum,
		// so this is a programmer error rather than a data condition.
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
		dens: make([][]int32, bandsFor(rows+1)),
		ft:   make([][]int32, bandsFor(rows)),
		zero: make([]int32, cols),
	}
}

func bandsFor(n int) int { return (n + 1<<bandShift - 1) >> bandShift }

// densRow returns channel ch's column counts for reading; untouched bands
// resolve to the shared zero row. Callers must not write through it.
func (g *Grid) densRow(ch int) []int32 {
	if s := g.dens[ch>>bandShift]; s != nil {
		off := (ch & (1<<bandShift - 1)) * g.Cols
		return s[off : off+g.Cols : off+g.Cols]
	}
	return g.zero
}

// densRowMut returns channel ch's column counts for writing, allocating
// the band slab on first touch.
func (g *Grid) densRowMut(ch int) []int32 {
	b := ch >> bandShift
	s := g.dens[b]
	if s == nil {
		n := geom.Min(g.Channels-b<<bandShift, 1<<bandShift)
		s = make([]int32, n*g.Cols)
		g.dens[b] = s
	}
	off := (ch & (1<<bandShift - 1)) * g.Cols
	return s[off : off+g.Cols : off+g.Cols]
}

// ftRow and ftRowMut are densRow/densRowMut for the feedthrough counters.
func (g *Grid) ftRow(row int) []int32 {
	if s := g.ft[row>>bandShift]; s != nil {
		off := (row & (1<<bandShift - 1)) * g.Cols
		return s[off : off+g.Cols : off+g.Cols]
	}
	return g.zero
}

func (g *Grid) ftRowMut(row int) []int32 {
	b := row >> bandShift
	s := g.ft[b]
	if s == nil {
		n := geom.Min(g.Rows-b<<bandShift, 1<<bandShift)
		s = make([]int32, n*g.Cols)
		g.ft[b] = s
	}
	off := (row & (1<<bandShift - 1)) * g.Cols
	return s[off : off+g.Cols : off+g.Cols]
}

// Reserve allocates the slabs of channels lo..hi and of the rows among
// them. A slab is otherwise created by its first writer, which two
// goroutines writing different channels of one slab would race to be.
func (g *Grid) Reserve(lo, hi int) {
	for ch := lo; ch <= hi; ch++ {
		g.densRowMut(ch)
		if ch < g.Rows {
			g.ftRowMut(ch)
		}
	}
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
	lo, hi := g.ColOf(iv.Lo), g.ColOf(iv.Hi)
	row := g.densRowMut(ch)
	for col := lo; col <= hi; col++ {
		row[col] += delta
	}
}

// AddVert adjusts feedthrough demand at column col for rows rowLo..rowHi
// (inclusive) by delta.
func (g *Grid) AddVert(rowLo, rowHi, col int, delta int32) {
	col = g.clampCol(col)
	for row := rowLo; row <= rowHi; row++ {
		g.ftRowMut(row)[col] += delta
	}
}

// HorizAddCost returns the congestion cost of adding a horizontal run to
// channel ch over iv: sum of 2d+1 over the covered columns.
func (g *Grid) HorizAddCost(ch int, iv geom.Interval) int64 {
	if iv.Empty() {
		return 0
	}
	lo, hi := g.ColOf(iv.Lo), g.ColOf(iv.Hi)
	row := g.densRow(ch)
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
		cost += ftBase + 2*int64(g.ftRow(row)[col])
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
	lo, hi := g.ColOf(iv.Lo), g.ColOf(iv.Hi)
	fromRow, toRow := g.densRow(from), g.densRow(to)
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
	lo, hi := g.ColOf(iv.Lo), g.ColOf(iv.Hi)
	fromRow, toRow := g.densRowMut(from), g.densRowMut(to)
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
		r := g.ftRow(row)
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
		r := g.ftRowMut(row)
		r[fromCol]--
		r[toCol]++
	}
}

// FtDemand returns the feedthrough demand at (row, col).
func (g *Grid) FtDemand(row, col int) int { return int(g.ftRow(row)[col]) }

// Density returns the horizontal-run count of channel ch at col.
func (g *Grid) Density(ch, col int) int { return int(g.densRow(ch)[col]) }

// DensCounts returns a flat channel-major copy of the density counters.
func (g *Grid) DensCounts() []int32 {
	out := make([]int32, g.Channels*g.Cols)
	for ch := 0; ch < g.Channels; ch++ {
		copy(out[ch*g.Cols:], g.densRow(ch))
	}
	return out
}

// TotalFt returns the total feedthrough demand.
func (g *Grid) TotalFt() int {
	var n int32
	for _, slab := range g.ft {
		for _, v := range slab {
			n += v
		}
	}
	return int(n)
}

// MaxChannelDensity returns the peak column density of channel ch.
func (g *Grid) MaxChannelDensity(ch int) int {
	var m int32
	for _, d := range g.densRow(ch) {
		if d > m {
			m = d
		}
	}
	return int(m)
}

// Clone returns a deep copy. Unallocated bands stay unallocated.
func (g *Grid) Clone() *Grid {
	out := &Grid{Rows: g.Rows, Channels: g.Channels, Cols: g.Cols, ColWidth: g.ColWidth,
		dens: make([][]int32, len(g.dens)),
		ft:   make([][]int32, len(g.ft)),
		zero: make([]int32, g.Cols)}
	for b, slab := range g.dens {
		if slab != nil {
			out.dens[b] = append([]int32(nil), slab...)
		}
	}
	for b, slab := range g.ft {
		if slab != nil {
			out.ft[b] = append([]int32(nil), slab...)
		}
	}
	return out
}

// Zero resets all counters in place, keeping allocated bands allocated
// (the caller is about to refill them).
func (g *Grid) Zero() {
	for _, slab := range g.dens {
		for i := range slab {
			slab[i] = 0
		}
	}
	for _, slab := range g.ft {
		for i := range slab {
			slab[i] = 0
		}
	}
}

// AddFrom adds other's counters into g. The grids must have identical
// shape; this is the merge step of the net-wise synchronization, and the
// merged grid may have crossed the transport, so a shape mismatch is a
// data error reported to the caller. Bands unallocated on both sides stay
// unallocated — bands align because bandShift is a package constant.
func (g *Grid) AddFrom(other *Grid) error {
	if err := g.matchErr(other); err != nil {
		return err
	}
	mergeSlabs(g, g.dens, other.dens, true, func(dst, src []int32) {
		for i, v := range src {
			dst[i] += v
		}
	})
	mergeSlabs(g, g.ft, other.ft, false, func(dst, src []int32) {
		for i, v := range src {
			dst[i] += v
		}
	})
	return nil
}

// SubFrom subtracts other's counters from g; see AddFrom for the shape
// contract.
func (g *Grid) SubFrom(other *Grid) error {
	if err := g.matchErr(other); err != nil {
		return err
	}
	mergeSlabs(g, g.dens, other.dens, true, func(dst, src []int32) {
		for i, v := range src {
			dst[i] -= v
		}
	})
	mergeSlabs(g, g.ft, other.ft, false, func(dst, src []int32) {
		for i, v := range src {
			dst[i] -= v
		}
	})
	return nil
}

// mergeSlabs applies combine to every band other has allocated, allocating
// the matching band of g on demand. isDens selects which counter family
// the band indices address.
func mergeSlabs(g *Grid, dst, src [][]int32, isDens bool, combine func(dst, src []int32)) {
	for b, slab := range src {
		if slab == nil {
			continue
		}
		if dst[b] == nil {
			if isDens {
				g.densRowMut(b << bandShift)
			} else {
				g.ftRowMut(b << bandShift)
			}
		}
		combine(dst[b], slab)
	}
}

func (g *Grid) matchErr(other *Grid) error {
	if g.Rows != other.Rows || g.Cols != other.Cols {
		return fmt.Errorf("grid: shape mismatch %dx%d vs %dx%d",
			g.Rows, g.Cols, other.Rows, other.Cols)
	}
	return nil
}

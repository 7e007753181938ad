package grid

import (
	"fmt"
	"math"
)

// A delta is how a counter table replicated across the net-wise ranks is
// kept in sync: a flat []int32 of (index, change) pairs, index ascending,
// naming every counter that moved since the sender's previous delta. Sums
// of integers commute, so a replica that adds every peer's deltas holds the
// sum of all ranks' tables — what a full Allreduce would compute — without
// any rank shipping or rebuilding the counters that did not move.
//
// AppendTableDelta and ApplyTableDelta work on any table of rows×cols
// counters handed over as row accessors; Grid and route.Occupancy are the
// two. Indices are int32: a table is far below 2^31 counters.

// AppendTableDelta appends a pair for every counter that differs from snap,
// the flat row-major table as of the previous call, and advances snap to the
// current values. A snap equal to the table appends nothing; against an
// all-zero snap the pairs are the whole table in sparse form.
func AppendTableDelta(dst, snap []int32, rows, cols int, row func(int) []int32) []int32 {
	for r := 0; r < rows; r++ {
		old := snap[r*cols : (r+1)*cols]
		for c, v := range row(r) {
			if v != old[c] {
				dst = append(dst, int32(r*cols+c), v-old[c])
				old[c] = v
			}
		}
	}
	return dst
}

// ApplyTableDelta adds a delta into the table. The pairs crossed the
// transport, so they are checked in full before the first write: whole
// pairs, indices ascending inside the table, and no change that is zero or
// takes a counter outside [0, MaxInt32] (every rank's table is non-negative
// whenever it syncs, so an honest running sum is too, and the peak logic of
// route.Occupancy relies on it). A rejected delta leaves the table as it
// was. rowMut is only called for rows that take a change.
func ApplyTableDelta(pairs []int32, rows, cols int, row, rowMut func(int) []int32) error {
	if len(pairs)%2 != 0 {
		return fmt.Errorf("delta length %d is odd", len(pairs))
	}
	// Indices ascend, so each pass fetches a row once, not once per pair.
	prev, base, cur := int32(-1), 0, []int32(nil)
	for i := 0; i < len(pairs); i += 2 {
		idx, d := pairs[i], pairs[i+1]
		if idx <= prev || int(idx) >= rows*cols {
			return fmt.Errorf("delta pair %d has index %d outside [%d, %d]", i/2, idx, int(prev)+1, rows*cols-1)
		}
		if cur == nil || int(idx) >= base+cols {
			base = int(idx) / cols * cols
			cur = row(base / cols)
		}
		at := cur[int(idx)-base]
		if sum := int64(at) + int64(d); d == 0 || sum < 0 || sum > math.MaxInt32 {
			return fmt.Errorf("delta pair %d has change %d on a counter at %d", i/2, d, at)
		}
		prev = idx
	}
	cur = nil
	for i := 0; i < len(pairs); i += 2 {
		idx := int(pairs[i])
		if cur == nil || idx >= base+cols {
			base = idx / cols * cols
			cur = rowMut(base / cols)
		}
		cur[idx-base] += pairs[i+1]
	}
	return nil
}

// TableLen is the number of counters in the grid's delta index space:
// densities channel-major, then feedthrough demand row-major.
func (g *Grid) TableLen() int { return (g.Channels + g.Rows) * g.Cols }

func (g *Grid) tableRow(r int) []int32 {
	if r < g.Channels {
		return g.densRow(r)
	}
	return g.ftRow(r - g.Channels)
}

func (g *Grid) tableRowMut(r int) []int32 {
	if r < g.Channels {
		return g.densRowMut(r)
	}
	return g.ftRowMut(r - g.Channels)
}

// AppendDelta is AppendTableDelta over the grid; snap has TableLen entries.
func (g *Grid) AppendDelta(dst, snap []int32) []int32 {
	return AppendTableDelta(dst, snap, g.Channels+g.Rows, g.Cols, g.tableRow)
}

// ApplyDelta is ApplyTableDelta over the grid. Slabs are created on demand:
// a band no pair touches stays unallocated.
func (g *Grid) ApplyDelta(pairs []int32) error {
	return ApplyTableDelta(pairs, g.Channels+g.Rows, g.Cols, g.tableRow, g.tableRowMut)
}

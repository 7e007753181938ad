package grid

import (
	"fmt"
	"math"
	"slices"
)

// bandShift sets the slab granularity: 1<<bandShift rows per lazily created
// slab. A package constant, so tables of equal shape have aligned slabs and
// a row's slab is a constant shift away.
const bandShift = 3

// BandRows is the number of rows per slab. Goroutines that split a table by
// row cut it at multiples of BandRows, so that no two of them create the
// same slab.
const BandRows = 1 << bandShift

// Table is a rows×cols table of int32 counters cut into slabs of BandRows
// rows, each created by its first write; reads of a row whose slab does not
// exist resolve to one shared zero row. A parallel rank that only writes its
// own row block therefore pays for its band of the table, not the whole
// design — O(rows/p) rather than O(rows) peak memory at million-cell scale.
// The coarse grid's two counter families and route.Occupancy are Tables;
// this file is the only place slab arithmetic lives.
//
// A delta is how a table replicated across the net-wise ranks is kept in
// sync: a flat []int32 of (index, change) pairs, index ascending over the
// row-major counters, naming every counter that moved since a snapshot. Sums
// of integers commute, so a replica that adds every peer's deltas holds the
// sum of all ranks' contributions — what a full Allreduce would compute —
// without any rank shipping or rebuilding the counters that did not move.
// Indices are int32: a table is far below 2^31 counters.
type Table struct {
	rows, cols int
	slabs      [][]int32 // slabs[b] holds rows [b<<bandShift, (b+1)<<bandShift) row-major; nil until written
	zero       []int32
}

// NewTable returns an all-zero table with no slab created.
func NewTable(rows, cols int) Table {
	return Table{rows: rows, cols: cols,
		slabs: make([][]int32, (rows+BandRows-1)>>bandShift),
		zero:  make([]int32, cols)}
}

// Len is the number of counters.
func (t *Table) Len() int { return t.rows * t.cols }

// Row returns row r for reading. Callers must not write through it.
func (t *Table) Row(r int) []int32 {
	if s := t.slabs[r>>bandShift]; s != nil {
		off := (r & (BandRows - 1)) * t.cols
		return s[off : off+t.cols : off+t.cols]
	}
	return t.zero
}

// RowMut returns row r for writing, creating its slab on first touch.
func (t *Table) RowMut(r int) []int32 {
	b := r >> bandShift
	s := t.slabs[b]
	if s == nil {
		s = make([]int32, min(t.rows-b<<bandShift, BandRows)*t.cols)
		t.slabs[b] = s
	}
	off := (r & (BandRows - 1)) * t.cols
	return s[off : off+t.cols : off+t.cols]
}

// HasSlab reports whether the slab holding row r has been created.
func (t *Table) HasSlab(r int) bool { return t.slabs[r>>bandShift] != nil }

// Reserve creates the slabs of rows lo..hi, clipped to the table. A slab is
// otherwise created by its first writer, which two goroutines writing
// different rows of one slab would race to be.
func (t *Table) Reserve(lo, hi int) {
	for r := max(lo, 0); r <= min(hi, t.rows-1); r++ {
		t.RowMut(r)
	}
}

// Clone returns a deep copy. Slabs never written stay uncreated.
func (t *Table) Clone() Table {
	out := NewTable(t.rows, t.cols)
	for b, s := range t.slabs {
		out.slabs[b] = slices.Clone(s)
	}
	return out
}

// AppendDelta appends a pair for every counter that differs from snap, the
// table's flat row-major values as of an earlier moment, and advances snap
// to the current values; base is added to every index. A snap equal to the
// table appends nothing; against an all-zero snap the pairs are the whole
// table in sparse form.
func (t *Table) AppendDelta(dst, snap []int32, base int) []int32 {
	for r := 0; r < t.rows; r++ {
		old := snap[r*t.cols : (r+1)*t.cols]
		for c, v := range t.Row(r) {
			if v != old[c] {
				dst = append(dst, int32(base+r*t.cols+c), v-old[c])
				old[c] = v
			}
		}
	}
	return dst
}

// CheckDelta validates pairs that crossed the transport, in full and without
// writing: whole pairs, indices strictly ascending inside [base, base+Len),
// and no change that is zero or takes a counter outside [0, MaxInt32] (every
// rank's table is non-negative whenever it syncs, so an honest running sum is
// too, and the peak logic of route.Occupancy relies on it).
func (t *Table) CheckDelta(pairs []int32, base int) error {
	if len(pairs)%2 != 0 {
		return fmt.Errorf("delta length %d is odd", len(pairs))
	}
	// Indices ascend, so a row is fetched once, not once per pair: end is
	// where the fetched row stops in the table's own index space.
	prev, end, cur := base-1, 0, []int32(nil)
	for i := 0; i < len(pairs); i += 2 {
		idx, d := int(pairs[i]), pairs[i+1]
		if idx <= prev || idx >= base+t.Len() {
			return fmt.Errorf("delta pair %d has index %d outside [%d, %d]", i/2, idx, prev+1, base+t.Len()-1)
		}
		if idx-base >= end {
			r := (idx - base) / t.cols
			cur, end = t.Row(r), (r+1)*t.cols
		}
		at := cur[idx-base-(end-t.cols)]
		if sum := int64(at) + int64(d); d == 0 || sum < 0 || sum > math.MaxInt32 {
			return fmt.Errorf("delta pair %d has change %d on a counter at %d", i/2, d, at)
		}
		prev = idx
	}
	return nil
}

// ApplyDelta adds pairs that passed CheckDelta with the same base into the
// table, creating only the slabs of rows that take a change; changed, when
// not nil, is told each counter it changes, with its values before and after.
func (t *Table) ApplyDelta(pairs []int32, base int, changed func(row, col int, from, to int32)) {
	r, end, cur := 0, 0, []int32(nil)
	for i := 0; i < len(pairs); i += 2 {
		idx := int(pairs[i]) - base
		if idx >= end {
			r = idx / t.cols
			cur, end = t.RowMut(r), (r+1)*t.cols
		}
		col := idx - (end - t.cols)
		from := cur[col]
		cur[col] += pairs[i+1]
		if changed != nil {
			changed(r, col, from, cur[col])
		}
	}
}

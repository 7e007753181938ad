package grid

import (
	"slices"
	"testing"

	"parroute/internal/rng"
)

// flat is t's counters row-major, read row by row.
func flat(t *Table) []int32 {
	var out []int32
	for r := 0; r < t.rows; r++ {
		out = append(out, t.Row(r)...)
	}
	return out
}

// TestTableMatchesDenseArray plays randomized histories — span adds over one
// to several rows, reads, reserves reaching past both ends, clones — on a
// Table and on a plain [][]int32, with row counts that end on a slab
// boundary, one row past it and in a short last slab. The table must read
// like the dense array throughout, hold a slab exactly where a write or a
// reserve has reached, and a clone must keep nil slabs nil and share none.
func TestTableMatchesDenseArray(t *testing.T) {
	for _, rows := range []int{1, BandRows, BandRows + 1, 3*BandRows - 2, 4 * BandRows} {
		r := rng.New(uint64(rows))
		const cols = 7
		tab := NewTable(rows, cols)
		dense := make([][]int32, rows)
		for i := range dense {
			dense[i] = make([]int32, cols)
		}
		want := make([]bool, len(tab.slabs)) // slabs a write or reserve has reached
		check := func(when string, tab *Table) {
			t.Helper()
			if got := flat(tab); !slices.Equal(got, slices.Concat(dense...)) || tab.Len() != len(got) {
				t.Fatalf("rows=%d %s: table differs from the dense array", rows, when)
			}
			for b := range want {
				if tab.HasSlab(b*BandRows) != want[b] || (tab.slabs[b] != nil) != want[b] {
					t.Fatalf("rows=%d %s: slab %d exists: %v, want %v", rows, when, b, tab.slabs[b] != nil, want[b])
				}
			}
		}
		for step := 0; step < 300; step++ {
			switch r.Intn(8) {
			case 0:
				lo := r.Intn(rows+4) - 2
				hi := lo + r.Intn(2*BandRows)
				tab.Reserve(lo, hi)
				for row := max(lo, 0); row <= min(hi, rows-1); row++ {
					want[row/BandRows] = true
				}
				check("after Reserve", &tab)
			case 1:
				clone := tab.Clone()
				check("in a clone", &clone)
				for b, s := range clone.slabs {
					if s != nil && &s[0] == &tab.slabs[b][0] {
						t.Fatalf("rows=%d: clone shares slab %d", rows, b)
					}
				}
				clone.RowMut(r.Intn(rows))[0]++
				check("after a write to its clone", &tab)
			default:
				// A run of rows that may straddle a slab boundary.
				lo := r.Intn(rows)
				hi := min(lo+r.Intn(BandRows+2), rows-1)
				c0, d := r.Intn(cols), int32(r.Intn(5)-1)
				for row := lo; row <= hi; row++ {
					for c := c0; c < cols; c++ {
						tab.RowMut(row)[c] += d
						dense[row][c] += d
					}
					want[row/BandRows] = true
				}
				check("after a write", &tab)
			}
		}
		if last := len(tab.slabs) - 1; tab.slabs[last] != nil && len(tab.slabs[last]) != (rows-last*BandRows)*cols {
			t.Fatalf("rows=%d: last slab holds %d counters", rows, len(tab.slabs[last]))
		}
	}
}

// TestTableDeltaRoundTripWithBase: the pairs AppendDelta derives against a
// snapshot carry base on every index, pass CheckDelta with that base and no
// other, and applied to a table that equals the snapshot reproduce the
// source — creating only the slabs of touched rows and naming each changed
// counter once, with its values before and after.
func TestTableDeltaRoundTripWithBase(t *testing.T) {
	const rows, cols, base = 2*BandRows + 3, 5, 1000
	r := rng.New(4)
	src := NewTable(rows, cols)
	for _, row := range []int{1, BandRows - 1, 2*BandRows + 2} { // slabs 0 and 2; slab 1 stays nil
		for c := 0; c < cols; c++ {
			src.RowMut(row)[c] = int32(r.Intn(4))
		}
	}
	dst := src.Clone()
	snap := flat(&src)
	src.RowMut(1)[2] += 3
	src.RowMut(2*BandRows + 2)[0]++
	src.RowMut(2*BandRows + 2)[4] += 2

	pairs := src.AppendDelta(nil, snap, base)
	if want := []int32{base + 1*cols + 2, 3, base + (2*BandRows+2)*cols, 1, base + (2*BandRows+2)*cols + 4, 2}; !slices.Equal(pairs, want) {
		t.Fatalf("pairs %v, want %v", pairs, want)
	}
	if !slices.Equal(snap, flat(&src)) {
		t.Fatal("snapshot did not advance to the table")
	}
	if again := src.AppendDelta(nil, snap, base); len(again) != 0 {
		t.Fatalf("%d pairs against a snapshot equal to the table", len(again)/2)
	}
	if err := dst.CheckDelta(pairs, 0); err == nil {
		t.Fatal("pairs with base 1000 passed a check with base 0")
	}
	if err := dst.CheckDelta(pairs, base); err != nil {
		t.Fatal(err)
	}
	before := flat(&dst)
	var changed, want [][4]int
	dst.ApplyDelta(pairs, base, func(row, col int, from, to int32) {
		changed = append(changed, [4]int{row, col, int(from), int(to)})
	})
	if !slices.Equal(flat(&dst), flat(&src)) {
		t.Fatal("applied delta does not reproduce the source")
	}
	for i := 0; i < len(pairs); i += 2 {
		idx := int(pairs[i]) - base
		want = append(want, [4]int{idx / cols, idx % cols, int(before[idx]), int(before[idx] + pairs[i+1])})
	}
	if !slices.Equal(changed, want) {
		t.Fatalf("changed counters %v, want %v", changed, want)
	}
	if dst.HasSlab(BandRows) {
		t.Fatal("a delta created a slab it does not touch")
	}
}

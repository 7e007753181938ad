package route

import (
	"fmt"

	"parroute/internal/grid"
)

// The dense forms of the occupancy table, as the net-wise Allreduce shipped
// and installed them before syncs went to deltas; kept for the tests that
// compare whole tables and as the reference the delta path is held to.

// Counts returns a copy of all column counts (channel-major).
func (o *Occupancy) Counts() []int32 {
	out := make([]int32, o.Channels*o.Cols)
	for ch := 0; ch < o.Channels; ch++ {
		copy(out[ch*o.Cols:], o.counts.Row(ch))
	}
	return out
}

// SetCounts replaces all column counts and invalidates every peak cache.
// Slabs that are zero in the payload and were never touched stay
// uncreated.
func (o *Occupancy) SetCounts(counts []int32) error {
	if len(counts) != o.Channels*o.Cols {
		return fmt.Errorf("route: occupancy counts length %d, want %d", len(counts), o.Channels*o.Cols)
	}
	for ch := 0; ch < o.Channels; ch++ {
		seg := counts[ch*o.Cols : (ch+1)*o.Cols]
		if !o.counts.HasSlab(ch) && allZero32(seg) {
			continue
		}
		copy(o.counts.RowMut(ch), seg)
	}
	for ch := range o.chMaxOK {
		o.chMaxOK[ch] = false
	}
	return nil
}

func allZero32(s []int32) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// gridTable returns g's counters flat, densities then feedthrough demand.
func gridTable(g *grid.Grid) []int32 {
	flat := make([]int32, g.TableLen())
	g.AppendDelta(nil, flat)
	return flat
}

// Package steiner builds each net's approximate Steiner tree — TWGR's
// step 1 — from the minimum spanning tree of the net's pins.
//
// Every MST edge between pins in different rows becomes a Segment routed as
// a one-bend L: a vertical run at some column (BendX) plus a horizontal run
// in a channel. Step 2 (coarse global routing) later flips each segment
// between its two L orientations; step 1 only fixes the initial shape. Each
// same-row edge becomes a flat Segment with no vertical run.
package steiner

import (
	"slices"
	"sort"

	"parroute/internal/circuit"
	"parroute/internal/geom"
	"parroute/internal/mst"
)

// Bit budget of the packed (Y, X, index) sort keys in appendLargeNet: pin
// index in the low bits, x above it, row on top.
const (
	sortIdxBits = 20
	sortXBits   = 31
)

// VerticalCost is the MST distance weight of one row of vertical span
// relative to one x unit of horizontal span. Crossing a row costs a
// feedthrough, which is far more expensive than channel wirelength, so the
// tree prefers horizontal structure.
const VerticalCost = 16

// Segment is one tree edge of a net: a connection between two pins (or,
// after splitting in the parallel algorithms, between a pin and a fake
// pin). For cross-row segments the L orientation is encoded by BendX.
type Segment struct {
	Net  int
	PinP int // pin ID of the lower endpoint (row P <= row Q)
	PinQ int // pin ID of the upper endpoint

	// Cached endpoint geometry (X, Row). Kept explicit so segments remain
	// meaningful when shipped between workers without the full circuit.
	P, Q geom.Point

	// BendX is the column of the vertical run: P.X means "vertical first",
	// Q.X means "horizontal first". Flat segments (P.Y == Q.Y) have no
	// vertical run and BendX is unused.
	BendX int
}

// Flat reports whether the segment stays within one row (no vertical run).
func (s *Segment) Flat() bool { return s.P.Y == s.Q.Y }

// LargeNetThreshold is the pin count above which BuildNet switches from
// the exact O(n^2) Prim MST to the O(n log n) row-chain construction.
// Only clock-class nets exceed it.
const LargeNetThreshold = 192

// BuildNet computes the Steiner segments of a single net. Test/diagnostic
// convenience; drivers use Builder. This wrapper allocates fresh scratch
// per call, and the root lint test rejects calls to it from outside
// _test.go files.
func BuildNet(c *circuit.Circuit, netID int) []Segment {
	var b Builder
	return b.AppendNet(nil, c, netID)
}

// Builder carries the reusable scratch of BuildNet (pin geometry and Prim
// working storage) so step 1 builds a whole circuit's trees with no
// per-net allocation beyond the output. The zero value is ready to use; a
// Builder is not safe for concurrent use.
type Builder struct {
	pts   []geom.Point
	order []int
	keys  []int64
	ms    mst.Scratch
}

// AppendNet appends net netID's Steiner segments to dst and returns it.
//
// The MST metric is |dx| + VerticalCost*|drow|; the initial bend of each
// cross-row segment is the column of its lower endpoint (vertical-first),
// a deterministic choice step 2 immediately begins improving.
func (b *Builder) AppendNet(dst []Segment, c *circuit.Circuit, netID int) []Segment {
	pinIDs := c.NetPins(netID)
	if len(pinIDs) < 2 {
		return dst
	}
	if cap(b.pts) < len(pinIDs) {
		b.pts = make([]geom.Point, len(pinIDs))
	}
	pts := b.pts[:len(pinIDs)]
	for i, pid := range pinIDs {
		pts[i] = c.Pins[pid].Point()
	}
	first := len(dst)
	if len(pinIDs) > LargeNetThreshold {
		dst = b.appendLargeNet(dst, netID, pinIDs, pts)
	} else {
		edges, _ := b.ms.Prim(len(pts), func(i, j int) int64 {
			return int64(geom.Abs(pts[i].X-pts[j].X)) +
				VerticalCost*int64(geom.Abs(pts[i].Y-pts[j].Y))
		})
		for _, e := range edges {
			dst = append(dst, NewSegment(netID, int(pinIDs[e.U]), pts[e.U], int(pinIDs[e.V]), pts[e.V]))
		}
	}
	// A fake pin marks where the whole net's route crossed the partition
	// boundary — the parent segment's vertical run passed through that
	// exact column. Start the split piece with its bend there, so the
	// boundary hand-off is a point, not a fresh span in the shared channel.
	for i := first; i < len(dst); i++ {
		s := &dst[i]
		pFake := c.Pins[s.PinP].Fake
		qFake := c.Pins[s.PinQ].Fake
		switch {
		case pFake && !qFake:
			s.BendX = s.P.X
		case qFake && !pFake:
			s.BendX = s.Q.X
		}
	}
	return dst
}

// appendLargeNet approximates the Steiner tree of a clock-class net the
// way such nets actually route in row-based designs: a horizontal trunk
// chain per row (consecutive pins by x), with each row chain hooked to the
// nearest pin of the previous populated row. With VerticalCost dominating,
// the exact MST converges to almost exactly this shape anyway, and this
// construction is O(n log n) instead of O(n^2).
func (b *Builder) appendLargeNet(dst []Segment, netID int, pinIDs []int32, pts []geom.Point) []Segment {
	if cap(b.order) < len(pts) {
		b.order = make([]int, len(pts))
	}
	order := b.order[:len(pts)]
	for i := range order {
		order[i] = i
	}
	// Sort (Y, X, index) lexicographically. When the coordinates fit the
	// key budget — rows below 2^12, 0 <= x < 2^31, under 2^20 pins, i.e.
	// every realistic clock net — the sort runs comparator-free over packed
	// int64 keys; the reflective sort.Slice fallback only exists for
	// adversarial inputs.
	pack := len(pts) <= 1<<sortIdxBits
	for i := range pts {
		if pts[i].X < 0 || pts[i].X >= 1<<sortXBits ||
			pts[i].Y < 0 || pts[i].Y >= 1<<(63-sortIdxBits-sortXBits) {
			pack = false
			break
		}
	}
	if pack {
		keys := b.keys[:0]
		for i, p := range pts {
			keys = append(keys, int64(p.Y)<<(sortIdxBits+sortXBits)|int64(p.X)<<sortIdxBits|int64(i))
		}
		slices.Sort(keys)
		for i, k := range keys {
			order[i] = int(k & (1<<sortIdxBits - 1))
		}
		b.keys = keys
	} else {
		sort.Slice(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if pts[ia].Y != pts[ib].Y {
				return pts[ia].Y < pts[ib].Y
			}
			if pts[ia].X != pts[ib].X {
				return pts[ia].X < pts[ib].X
			}
			return ia < ib
		})
	}
	var prevRow []int // previous populated row's pin order, sorted by x
	for lo := 0; lo < len(order); {
		hi := lo
		for hi < len(order) && pts[order[hi]].Y == pts[order[lo]].Y {
			hi++
		}
		row := order[lo:hi]
		for i := lo + 1; i < hi; i++ {
			u, v := order[i-1], order[i]
			dst = append(dst, NewSegment(netID, int(pinIDs[u]), pts[u], int(pinIDs[v]), pts[v]))
		}
		if prevRow != nil {
			u, v := closestPair(pts, prevRow, row)
			dst = append(dst, NewSegment(netID, int(pinIDs[u]), pts[u], int(pinIDs[v]), pts[v]))
		}
		prevRow = row
		lo = hi
	}
	return dst
}

// closestPair returns the x-closest pair between two x-sorted index lists
// via a linear merge scan.
func closestPair(pts []geom.Point, a, b []int) (int, int) {
	bu, bv := a[0], b[0]
	best := geom.Abs(pts[bu].X - pts[bv].X)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		u, v := a[i], b[j]
		if d := geom.Abs(pts[u].X - pts[v].X); d < best {
			best, bu, bv = d, u, v
		}
		if pts[u].X <= pts[v].X {
			i++
		} else {
			j++
		}
	}
	return bu, bv
}

// NewSegment builds a segment between two endpoints, normalizing so the
// lower row comes first and flat segments run left to right. The initial
// bend is at the lower endpoint's column.
func NewSegment(netID, pinA int, a geom.Point, pinB int, b geom.Point) Segment {
	if a.Y > b.Y || (a.Y == b.Y && a.X > b.X) {
		pinA, pinB = pinB, pinA
		a, b = b, a
	}
	return Segment{Net: netID, PinP: pinA, PinQ: pinB, P: a, Q: b, BendX: a.X}
}

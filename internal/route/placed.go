package route

import (
	"parroute/internal/circuit"
	"parroute/internal/geom"
	"parroute/internal/grid"
	"parroute/internal/steiner"
)

// PlacedSeg is a Steiner segment with its channel access resolved: CP and
// CQ are the channels through which the two endpoints enter the routing
// fabric. A segment with CP != CQ has a vertical run and therefore a bend
// choice — the single degree of freedom coarse routing optimizes. Of the
// Steiner segment itself only the net survives placement: every stage
// streams the segment array, so it carries nothing no stage reads.
type PlacedSeg struct {
	Net int32
	// CP and CQ are the access channels of the P and Q endpoints. They
	// satisfy CP <= CQ after normalization in Place.
	CP, CQ int32
	// XP and XQ are the endpoint x positions matching CP and CQ (the
	// endpoints may have been swapped relative to the Steiner segment's when
	// normalizing channel order for flat segments). PinAtP and PinAtQ are
	// the pin IDs backing XP and XQ, used to refresh positions after
	// feedthrough insertion shifts cells.
	XP, XQ         int32
	PinAtP, PinAtQ int32
	// BendAtP selects the L orientation: true places the vertical run at
	// XP (vertical first), false at XQ (horizontal first).
	BendAtP bool
	// SwitchRow >= 0 marks a flat segment between two equivalent-pin
	// endpoints: it may run in channel SwitchRow or SwitchRow+1.
	SwitchRow int32
}

// HasBend reports whether the segment has a vertical run and therefore two
// L orientations.
func (ps *PlacedSeg) HasBend() bool { return ps.CP != ps.CQ }

// Runs is the grid-level geometry of a placed segment under one bend
// choice: up to two horizontal runs plus one vertical run.
type Runs struct {
	HLoCh int           // channel of the low horizontal run
	HLo   geom.Interval // empty when the run has no extent
	HHiCh int
	HHi   geom.Interval
	VCol  int // x of the vertical run; -1 when there is none
	VLo   int // first row crossed
	VHi   int // last row crossed (inclusive)
}

// HasVert reports whether the geometry includes a vertical run.
func (r *Runs) HasVert() bool { return r.VCol >= 0 }

// runSpan returns the track-occupying extent of a horizontal connection
// from a to b: a zero-length connection occupies no track and yields an
// empty interval.
func runSpan(a, b int) geom.Interval {
	if a == b {
		return geom.Interval{Lo: 1, Hi: 0} // canonical empty
	}
	return geom.NewInterval(a, b)
}

// RunsFor returns the geometry of the segment under the given bend choice.
func (ps *PlacedSeg) RunsFor(bendAtP bool) Runs {
	cp, cq, xp, xq := int(ps.CP), int(ps.CQ), int(ps.XP), int(ps.XQ)
	if cp == cq {
		return Runs{HLoCh: cp, HLo: runSpan(xp, xq), HHiCh: cq, VCol: -1}
	}
	bendX := xq
	if bendAtP {
		bendX = xp
	}
	return Runs{
		HLoCh: cp, HLo: runSpan(xp, bendX),
		HHiCh: cq, HHi: runSpan(bendX, xq),
		VCol: bendX, VLo: cp, VHi: cq - 1,
	}
}

// CurrentRuns returns the geometry under the segment's current bend.
func (ps *PlacedSeg) CurrentRuns() Runs { return ps.RunsFor(ps.BendAtP) }

// ApplyRuns applies a segment geometry to the grid with the given sign.
func ApplyRuns(g *grid.Grid, r Runs, delta int32) { addRuns(g, r, delta, 0, g.Channels) }

// addRuns applies the part of a segment geometry that lands in channels
// and rows [lo, hi) to the grid with the given sign.
func addRuns(g *grid.Grid, r Runs, delta int32, lo, hi int) {
	if lo <= r.HLoCh && r.HLoCh < hi {
		g.AddHoriz(r.HLoCh, r.HLo, delta)
	}
	if lo <= r.HHiCh && r.HHiCh < hi {
		g.AddHoriz(r.HHiCh, r.HHi, delta)
	}
	if r.HasVert() {
		g.AddVert(geom.Max(r.VLo, lo), geom.Min(r.VHi, hi-1), g.ColOf(r.VCol), delta)
	}
}

// runsCost evaluates the congestion cost of adding a segment geometry to
// the grid (the segment must not currently be in the grid).
func runsCost(g *grid.Grid, r Runs, ftBase int64) int64 {
	cost := g.HorizAddCost(r.HLoCh, r.HLo) + g.HorizAddCost(r.HHiCh, r.HHi)
	if r.HasVert() {
		cost += g.VertAddCost(r.VLo, r.VHi, g.ColOf(r.VCol), ftBase)
	}
	return cost
}

// Place resolves a Steiner segment's channel access. For cross-row
// segments each endpoint enters through the channel facing the other
// endpoint when it has a choice (an equivalent pin, side Both, always
// saves one row crossing that way). Flat segments resolve to a shared
// channel when one exists; a Bottom/Top flat pair needs a one-row vertical
// run. Flat segments between two side-Both endpoints are switchable.
func Place(c *circuit.Circuit, seg steiner.Segment) PlacedSeg {
	sp := c.Pins[seg.PinP].Side
	sq := c.Pins[seg.PinQ].Side
	ps := PlacedSeg{Net: int32(seg.Net), BendAtP: seg.BendX == seg.P.X, SwitchRow: -1}
	ps.XP, ps.XQ = int32(seg.P.X), int32(seg.Q.X)
	ps.PinAtP, ps.PinAtQ = int32(seg.PinP), int32(seg.PinQ)

	if seg.Flat() {
		r := seg.P.Y
		var cp, cq int
		switch {
		case sp == circuit.Both && sq == circuit.Both:
			cp, cq = r, r
			ps.SwitchRow = int32(r)
		case sp == circuit.Both:
			cp = sideChannel(sq, r)
			cq = cp
		case sq == circuit.Both:
			cp = sideChannel(sp, r)
			cq = cp
		default:
			cp, cq = sideChannel(sp, r), sideChannel(sq, r)
		}
		ps.CP, ps.CQ = int32(cp), int32(cq)
		if ps.CP > ps.CQ {
			ps.swapEnds()
		}
		return ps
	}

	// Cross-row: P is the lower endpoint (steiner normalizes P.Y <= Q.Y).
	cp := seg.P.Y // Bottom
	if sp != circuit.Bottom {
		cp = seg.P.Y + 1 // Top or Both: enter through the upper channel
	}
	cq := seg.Q.Y + 1 // Top
	if sq != circuit.Top {
		cq = seg.Q.Y // Bottom or Both: enter through the lower channel
	}
	ps.CP, ps.CQ = int32(cp), int32(cq)
	if ps.CP > ps.CQ {
		// Defensive: cannot occur for cross-row segments (cp <= P.Y+1 <=
		// Q.Y <= cq), but keep the normalization self-contained.
		ps.swapEnds()
	}
	return ps
}

// swapEnds exchanges the two endpoints so CP <= CQ holds.
func (ps *PlacedSeg) swapEnds() {
	ps.CP, ps.CQ = ps.CQ, ps.CP
	ps.XP, ps.XQ = ps.XQ, ps.XP
	ps.PinAtP, ps.PinAtQ = ps.PinAtQ, ps.PinAtP
	ps.BendAtP = !ps.BendAtP
}

func sideChannel(s circuit.Side, row int) int {
	if s == circuit.Top {
		return row + 1
	}
	return row
}

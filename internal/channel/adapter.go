package channel

import (
	"parroute/internal/metrics"
)

// FromWires buckets a routing result's wires by channel and derives each
// wire's edge contacts from its endpoint anchors: an endpoint in the row
// directly above the channel (row == channel index) connects through the
// channel's top edge, one in the row below (row == channel-1) through the
// bottom edge. Endpoints elsewhere (forced fallback edges) contribute no
// vertical constraint.
func FromWires(numChannels int, wires []metrics.Wire) [][]Wire {
	out := make([][]Wire, numChannels)
	for i := range wires {
		mw := &wires[i]
		ch := int(mw.Channel)
		if ch < 0 || ch >= numChannels {
			continue
		}
		cw := Wire{Net: int(mw.Net), Span: mw.Span()}
		for _, end := range [][2]int32{{mw.AX, mw.ARow}, {mw.BX, mw.BRow}} {
			x, row := int(end[0]), int(end[1])
			switch row {
			case ch:
				cw.Top = append(cw.Top, x)
			case ch - 1:
				cw.Bottom = append(cw.Bottom, x)
			}
		}
		out[ch] = append(out[ch], cw)
	}
	return out
}

// Summary aggregates the detailed routing of every channel.
type Summary struct {
	// PerChannel holds each channel's assignment, indexed by channel.
	PerChannel []Assignment
	// AssignedTracks sums the track counts the router realized.
	AssignedTracks int
	// DensityTracks sums the density lower bounds.
	DensityTracks int
	// BrokenConstraints counts vertical constraints dropped to keep the
	// channels routable without doglegs.
	BrokenConstraints int
}

// RouteAll runs the channel router over every channel of a routing result
// and returns the aggregate summary. AssignedTracks >= DensityTracks
// always; equality means no vertical constraint forced an extra track.
func RouteAll(numChannels int, wires []metrics.Wire) Summary {
	byChannel := FromWires(numChannels, wires)
	sum := Summary{PerChannel: make([]Assignment, numChannels)}
	for ch, cws := range byChannel {
		asg := Route(cws)
		sum.PerChannel[ch] = asg
		sum.AssignedTracks += asg.Tracks
		sum.DensityTracks += Density(cws)
		sum.BrokenConstraints += asg.BrokenConstraints
	}
	return sum
}

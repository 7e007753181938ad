// Package channel implements a classic dogleg-free channel router: the
// constrained left-edge algorithm with a vertical constraint graph (VCG).
//
// TWGR is a *global* router: it decides which channel every net segment
// occupies and minimizes channel density — the lower bound on the tracks
// a channel router needs. In the TimberWolf flow the detailed channel
// router then assigns each wire to a concrete track between the two cell
// rows, honoring vertical constraints: where a wire connects to a pin on
// the channel's top edge, its vertical drop must not cross another wire's
// rise to a bottom-edge pin in the same column, so the top-connected wire
// must lie on a higher track.
//
// This package closes that loop for the reproduction: it realizes every
// channel's wires on tracks, reporting the assigned track count next to
// the density lower bound (they coincide unless vertical constraints
// force extra tracks).
package channel

import (
	"cmp"
	"slices"

	"parroute/internal/geom"
)

// Wire is one horizontal run to place in the channel. Top and Bottom list
// the columns where the wire connects to pins on the channel's top and
// bottom edge; they drive the vertical constraints.
type Wire struct {
	Net    int
	Span   geom.Interval
	Top    []int // columns with a top-edge contact
	Bottom []int // columns with a bottom-edge contact
}

// Assignment is the routing of one channel. Track[i] is the track index
// of wire i, counted from the top of the channel (track 0 adjoins the top
// cell row). Tracks is the number of tracks used. BrokenConstraints
// counts vertical constraints that had to be ignored to route without
// doglegs (cyclic VCGs are unroutable dogleg-free; the classic remedy is
// doglegging — here the cycle is broken and reported instead).
type Assignment struct {
	Track             []int
	Tracks            int
	BrokenConstraints int
}

// Route assigns every wire to a track with the constrained left-edge
// algorithm. Wires with empty spans are placed on track -1 (they occupy
// no horizontal extent; their pins connect directly).
func Route(wires []Wire) Assignment {
	n := len(wires)
	asg := Assignment{Track: make([]int, n)}
	real := make([]int, 0, n) // indices of wires with extent
	for i := range wires {
		if wires[i].Span.Empty() {
			asg.Track[i] = -1
		} else {
			real = append(real, i)
		}
	}
	if len(real) == 0 {
		return asg
	}

	above, broken := buildVCG(wires, real)
	asg.BrokenConstraints = broken

	// Constrained left-edge: fill tracks top-down. A wire is eligible for
	// the current track when every wire constrained to lie above it has
	// been placed on an earlier (higher) track. Within a track, pack
	// non-overlapping wires left to right. pending stays sorted by left
	// edge (ties by index, for determinism), so every track is one pass.
	pending := slices.Clone(real)
	slices.SortFunc(pending, func(a, b int) int {
		return cmp.Or(cmp.Compare(wires[a].Span.Lo, wires[b].Span.Lo), cmp.Compare(a, b))
	})
	for _, i := range pending {
		asg.Track[i] = -1
	}
	// predCount[i] = how many unplaced wires must lie above wire i.
	predCount := make([]int, n)
	for _, vs := range above {
		for _, v := range vs {
			predCount[v]++
		}
	}

	track := 0
	for len(pending) > 0 {
		if !slices.ContainsFunc(pending, func(i int) bool { return predCount[i] == 0 }) {
			// Should be impossible: buildVCG breaks all cycles. Guard
			// against a logic error by force-releasing the wire with the
			// fewest predecessors.
			best := -1
			for _, i := range pending {
				if best < 0 || predCount[i] < predCount[best] || (predCount[i] == predCount[best] && i < best) {
					best = i
				}
			}
			predCount[best] = 0
			asg.BrokenConstraints++
		}
		// Left-edge pack this track from the wires eligible at its start.
		lastHi := -1 << 60
		var placed []int
		for _, i := range pending {
			if predCount[i] == 0 && int(wires[i].Span.Lo) > lastHi {
				asg.Track[i] = track
				lastHi = int(wires[i].Span.Hi)
				placed = append(placed, i)
			}
		}
		pending = slices.DeleteFunc(pending, func(i int) bool { return asg.Track[i] == track })
		for _, i := range placed {
			for _, v := range above[i] {
				predCount[v]--
			}
		}
		track++
	}
	asg.Tracks = track
	return asg
}

// buildVCG derives the vertical constraint edges: above[u] lists wires
// that must lie strictly below wire u. A constraint arises when wire u
// has a top-edge contact and wire v a bottom-edge contact in the same
// column (their vertical connections would otherwise cross). Cycles —
// which make a channel unroutable without doglegs — are broken by
// dropping back edges found during a DFS, and the number of dropped
// edges is returned.
func buildVCG(wires []Wire, real []int) (above [][]int, broken int) {
	type contact struct {
		x, wire int
		top     bool
	}
	var contacts []contact
	for _, i := range real {
		w := &wires[i]
		for _, x := range w.Top {
			if w.Span.Contains(x) {
				contacts = append(contacts, contact{x: x, wire: i, top: true})
			}
		}
		for _, x := range w.Bottom {
			if w.Span.Contains(x) {
				contacts = append(contacts, contact{x: x, wire: i})
			}
		}
	}
	// By column, each column's contacts in the order they were listed:
	// sort x<<32 | listing index, which orders negative x right too.
	keys := make([]int64, len(contacts))
	for i, c := range contacts {
		keys[i] = int64(c.x)<<32 | int64(i)
	}
	slices.Sort(keys)
	above = make([][]int, len(wires))
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi]>>32 == keys[lo]>>32 {
			hi++
		}
		for _, ka := range keys[lo:hi] {
			a := contacts[uint32(ka)]
			if !a.top {
				continue
			}
			for _, kb := range keys[lo:hi] {
				b := contacts[uint32(kb)]
				if !b.top && a.wire != b.wire && !slices.Contains(above[a.wire], b.wire) {
					above[a.wire] = append(above[a.wire], b.wire)
				}
			}
		}
		lo = hi
	}
	// Cycle breaking: DFS over the constraint graph; back edges are
	// removed.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(wires))
	var dfs func(u int)
	dfs = func(u int) {
		color[u] = gray
		kept := above[u][:0]
		for _, v := range above[u] {
			switch color[v] {
			case gray:
				broken++ // back edge: drop it
			case white:
				kept = append(kept, v)
				dfs(v)
			default:
				kept = append(kept, v)
			}
		}
		above[u] = kept
		color[u] = black
	}
	for _, i := range real {
		if color[i] == white {
			dfs(i)
		}
	}
	return above, broken
}

// Density returns the channel's density — the maximum number of wires
// overlapping any column — which lower-bounds the achievable track count.
func Density(wires []Wire) int {
	// An event is 2x+1 where a span opens at x and 2x where one closes
	// (Hi+1), so at equal x a close sorts before an open.
	evs := make([]int64, 0, 2*len(wires))
	for i := range wires {
		if wires[i].Span.Empty() {
			continue
		}
		evs = append(evs, 2*int64(wires[i].Span.Lo)+1, 2*(int64(wires[i].Span.Hi)+1))
	}
	slices.Sort(evs)
	cur, max := 0, 0
	for _, e := range evs {
		if e&1 == 1 {
			cur++
			max = geom.Max(max, cur)
		} else {
			cur--
		}
	}
	return max
}

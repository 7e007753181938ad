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
	"sort"

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
	// non-overlapping wires left to right.
	pending := make(map[int]bool, len(real))
	for _, i := range real {
		pending[i] = true
	}
	// predCount[i] = how many unplaced wires must lie above wire i.
	predCount := make(map[int]int, len(real))
	for _, i := range real {
		predCount[i] = 0
	}
	for u, vs := range above {
		_ = u
		for _, v := range vs {
			predCount[v]++
		}
	}

	track := 0
	for len(pending) > 0 {
		// Eligible wires, sorted by left edge (ties by net then index for
		// determinism).
		var elig []int
		for i := range pending {
			if predCount[i] == 0 {
				elig = append(elig, i)
			}
		}
		if len(elig) == 0 {
			// Should be impossible: buildVCG breaks all cycles. Guard
			// against a logic error by force-releasing the wire with the
			// fewest predecessors.
			best, bestCount := -1, 1<<30
			for i := range pending {
				if predCount[i] < bestCount || (predCount[i] == bestCount && i < best) {
					best, bestCount = i, predCount[i]
				}
			}
			predCount[best] = 0
			elig = append(elig, best)
			asg.BrokenConstraints++
		}
		sort.Slice(elig, func(a, b int) bool {
			wa, wb := &wires[elig[a]], &wires[elig[b]]
			if wa.Span.Lo != wb.Span.Lo {
				return wa.Span.Lo < wb.Span.Lo
			}
			return elig[a] < elig[b]
		})
		// Left-edge pack this track.
		lastHi := -1 << 60
		placed := make([]int, 0, len(elig))
		for _, i := range elig {
			if int(wires[i].Span.Lo) > lastHi {
				asg.Track[i] = track
				lastHi = int(wires[i].Span.Hi)
				placed = append(placed, i)
			}
		}
		for _, i := range placed {
			delete(pending, i)
			for _, v := range above[i] {
				if pending[v] {
					predCount[v]--
				}
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
func buildVCG(wires []Wire, real []int) (above map[int][]int, broken int) {
	type contact struct {
		wire int
		top  bool
	}
	byCol := make(map[int][]contact)
	inSpan := func(w *Wire, x int) bool { return w.Span.Contains(x) }
	for _, i := range real {
		w := &wires[i]
		for _, x := range w.Top {
			if inSpan(w, x) {
				byCol[x] = append(byCol[x], contact{wire: i, top: true})
			}
		}
		for _, x := range w.Bottom {
			if inSpan(w, x) {
				byCol[x] = append(byCol[x], contact{wire: i, top: false})
			}
		}
	}
	edges := make(map[[2]int]bool)
	cols := make([]int, 0, len(byCol))
	for x := range byCol {
		cols = append(cols, x)
	}
	sort.Ints(cols)
	above = make(map[int][]int)
	for _, x := range cols {
		cs := byCol[x]
		for _, a := range cs {
			if !a.top {
				continue
			}
			for _, b := range cs {
				if b.top || a.wire == b.wire {
					continue
				}
				key := [2]int{a.wire, b.wire}
				if !edges[key] {
					edges[key] = true
					above[a.wire] = append(above[a.wire], b.wire)
				}
			}
		}
	}
	// Cycle breaking: iterative DFS over the constraint graph; back edges
	// are removed.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(real))
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
	type event struct {
		x, d int
	}
	var evs []event
	for i := range wires {
		if wires[i].Span.Empty() {
			continue
		}
		evs = append(evs, event{int(wires[i].Span.Lo), +1}, event{int(wires[i].Span.Hi) + 1, -1})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].x != evs[b].x {
			return evs[a].x < evs[b].x
		}
		return evs[a].d < evs[b].d
	})
	cur, max := 0, 0
	for _, e := range evs {
		cur += e.d
		if cur > max {
			max = cur
		}
	}
	return max
}

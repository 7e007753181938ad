package route

import (
	"cmp"
	"fmt"
	"slices"

	"parroute/internal/circuit"
	"parroute/internal/geom"
	"parroute/internal/metrics"
)

// Verify checks what the router emitted — the wires, read against the routed
// circuit, and the counters — and returns the first violation:
//
//   - every net of k >= 2 pins has exactly k-1 wires, every wire endpoint is
//     the position of a pin of the net, and the wires join all k pins. Where
//     pins of the net share a position, an endpoint there contacts those
//     whose side reaches the wire's channel;
//   - every wire lies in a channel of the circuit: a switchable one in
//     channel Row or Row+1, both anchors Both-sided pins of row Row; any
//     other in a channel both endpoints reach, or it counts as forced, and
//     exactly ForcedEdges do;
//   - feedthrough bookkeeping closed exactly (no uncovered crossings, no
//     orphaned feedthrough cells), and the circuit is still consistent.
//
// Call it after the pipeline has run (Run, or the individual phases through
// ConnectNets). The cost is linear in pins and wires, plus a sort of each
// net's pins by position.
func (rt *Router) Verify() error {
	c := rt.C
	if err := c.Validate(); err != nil {
		return fmt.Errorf("route: circuit corrupted: %w", err)
	}
	if rt.ExtraFts > 0 {
		return fmt.Errorf("route: %d crossings were not covered by the demand estimate", rt.ExtraFts)
	}
	if rt.UnboundFts > 0 {
		return fmt.Errorf("route: %d feedthroughs inserted but never bound", rt.UnboundFts)
	}

	// Bucket the wires by net: net n's are byNet[off[n]:off[n+1]].
	off := make([]int, len(c.Nets)+1)
	for i := range rt.Wires {
		w := &rt.Wires[i]
		if w.Net < 0 || int(w.Net) >= len(c.Nets) {
			return fmt.Errorf("route: wire %d belongs to net %d of %d", i, w.Net, len(c.Nets))
		}
		if w.Channel < 0 || int(w.Channel) >= c.NumChannels() {
			return fmt.Errorf("route: wire %d of net %d in channel %d of %d", i, w.Net, w.Channel, c.NumChannels())
		}
		off[w.Net+1]++
	}
	for n := range c.Nets {
		if k := len(c.NetPins(n)); off[n+1] != geom.Max(k-1, 0) {
			return fmt.Errorf("route: net %d has %d wires for %d pins", n, off[n+1], k)
		}
		off[n+1] += off[n]
	}
	byNet, next := make([]int32, len(rt.Wires)), slices.Clone(off)
	for i := range rt.Wires {
		byNet[next[rt.Wires[i].Net]] = int32(i)
		next[rt.Wires[i].Net]++
	}

	// The net in hand: its pins sorted by position, and the sets the wires
	// seen so far join them into, by index into at.
	type pinAt struct {
		row, x, id int32
		side       circuit.Side
	}
	var at []pinAt
	var uf unionFind
	// contact joins the pins at (x, row) that reach wire w — all of them when
	// none does — and returns one of them and whether any reached.
	contact := func(w *metrics.Wire, x, row int32) (pin int, reaches, ok bool) {
		pin, ok = slices.BinarySearchFunc(at, pinAt{row: row, x: x}, func(a, b pinAt) int {
			return cmp.Or(cmp.Compare(a.row, b.row), cmp.Compare(a.x, b.x))
		})
		if !ok {
			return 0, false, false
		}
		reach := func(p pinAt) bool {
			lo, hi, both := Node{Row: p.row, Side: p.side}.Channels()
			return (both || !w.Switchable) && lo <= int(w.Channel) && int(w.Channel) <= hi
		}
		end := pin
		for end < len(at) && at[end].row == row && at[end].x == x {
			end++
		}
		if i := slices.IndexFunc(at[pin:end], reach); i >= 0 {
			pin, reaches = pin+i, true
		}
		for i := pin + 1; i < end; i++ {
			if !reaches || reach(at[i]) {
				uf.union(pin, i)
			}
		}
		return pin, reaches, true
	}
	forced := 0
	for n := range c.Nets {
		if off[n] == off[n+1] {
			continue
		}
		at = at[:0]
		for _, pid := range c.NetPins(n) {
			p := &c.Pins[pid]
			at = append(at, pinAt{row: p.Row, x: p.X, id: pid, side: p.Side})
		}
		slices.SortFunc(at, func(a, b pinAt) int {
			return cmp.Or(cmp.Compare(a.row, b.row), cmp.Compare(a.x, b.x), cmp.Compare(a.id, b.id))
		})
		uf.reset(len(at))
		for _, i := range byNet[off[n]:off[n+1]] {
			w := &rt.Wires[i]
			if w.Switchable && (w.Channel != w.ARow && w.Channel != w.ARow+1 || w.BRow != w.ARow) {
				return fmt.Errorf("route: switchable wire %d of net %d in channel %d between rows %d and %d, candidates %d/%d",
					i, n, w.Channel, w.ARow, w.BRow, w.ARow, w.ARow+1)
			}
			a, aReaches, aOK := contact(w, w.AX, w.ARow)
			b, bReaches, bOK := contact(w, w.BX, w.BRow)
			switch {
			case !aOK || !bOK:
				return fmt.Errorf("route: wire %d of net %d from (%d, row %d) to (%d, row %d) ends where the net has no pin",
					i, n, w.AX, w.ARow, w.BX, w.BRow)
			case aReaches && bReaches:
			case w.Switchable:
				return fmt.Errorf("route: switchable wire %d of net %d ends at a pin that is not Both-sided", i, n)
			default:
				if forced++; forced > rt.ForcedEdges {
					return fmt.Errorf("route: wire %d of net %d in channel %d unreachable from an endpoint (rows %d and %d), beyond the %d forced edges recorded",
						i, n, w.Channel, w.ARow, w.BRow, rt.ForcedEdges)
				}
			}
			uf.union(a, b)
		}
		for i := range at {
			if uf.find(i) != uf.find(0) {
				return fmt.Errorf("route: net %d is electrically disconnected at pin %d", n, at[i].id)
			}
		}
	}
	if forced != rt.ForcedEdges {
		return fmt.Errorf("route: %d forced edges recorded, %d wires in a channel an endpoint cannot reach", rt.ForcedEdges, forced)
	}

	// Feedthrough cells: one Both-sided pin each, bound to a net.
	ftCells := 0
	for i := range rt.C.Cells {
		if !rt.C.Cells[i].Feed {
			continue
		}
		ftCells++
		pins := rt.C.CellPins(i)
		if len(pins) != 1 {
			return fmt.Errorf("route: feedthrough cell %d has %d pins", i, len(pins))
		}
		pin := &rt.C.Pins[pins[0]]
		if pin.Side != circuit.Both {
			return fmt.Errorf("route: feedthrough pin %d has side %v", pins[0], pin.Side)
		}
		if pin.Net == circuit.NoNet {
			return fmt.Errorf("route: feedthrough pin %d unbound", pins[0])
		}
	}
	if ftCells != rt.InsertedFts {
		return fmt.Errorf("route: %d feedthrough cells but %d insertions recorded",
			ftCells, rt.InsertedFts)
	}
	return nil
}

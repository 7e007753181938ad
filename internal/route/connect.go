package route

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"parroute/internal/circuit"
	"parroute/internal/geom"
	"parroute/internal/metrics"
	"parroute/internal/workpool"
)

// Node is a connection point of a net during step 4: a regular pin, an
// assigned feedthrough pin, or (in the parallel algorithms) a fake
// boundary pin. Nodes are self-contained so they can be shipped between
// workers without the circuit. X and Row are int32, like a pin's (12 B).
type Node struct {
	X    int32
	Row  int32
	Side circuit.Side
}

// Channels returns the routing channels the node touches: a pin's at its
// row and side.
func (n Node) Channels() (lo, hi int, both bool) {
	return (&circuit.Pin{Row: n.Row, Side: n.Side}).Channels()
}

// adjacent reports whether two nodes share a channel, and returns the
// shared channels. When both is true the pair shares two channels (both
// nodes are side-Both in the same row) and the connection is switchable.
func adjacent(a, b Node) (ch int, both bool, ok bool) {
	alo, ahi, aboth := a.Channels()
	blo, bhi, bboth := b.Channels()
	lo := geom.Max(alo, blo)
	hi := geom.Min(ahi, bhi)
	if lo > hi {
		return 0, false, false
	}
	if lo < hi && aboth && bboth {
		return lo, true, true
	}
	return lo, false, true
}

// edgeWire is the wire of a step-4 tree edge of net between nodes u and v
// in channel ch, including the endpoint anchors the detailed channel router
// needs.
func edgeWire(net int, u, v Node, ch int) metrics.Wire {
	return metrics.Wire{
		Net:     int32(net),
		Channel: int32(ch),
		AX:      u.X, ARow: u.Row,
		BX: v.X, BRow: v.Row,
	}
}

// Connector carries the reusable scratch of the step-4 tree build so it
// runs allocation-free per net. The zero value is ready to use; a
// Connector is not safe for concurrent use.
type Connector struct {
	entries []chEntry
	cands   []connCand
	keys    []int64
	uf      unionFind
}

// chEntry is one (channel, node) incidence; nodes touching two channels
// produce two entries.
type chEntry struct {
	ch, x, idx int
}

// connCand is one candidate MST edge: a consecutive-by-x pair of one
// channel, at cost w = |dx|.
type connCand struct {
	w    int64
	u, v int
}

// Bit budget of the packed int64 sort keys: node index in the low bits,
// then x (or edge weight), then channel. An x is a non-negative int32, so
// it always fits; inputs beyond the other bounds — a million pins on one
// net, 4095 channels, 2^23-unit edge weights — take the comparator-based
// fallback sort instead.
const (
	packIdxBits = 20
	packXBits   = 31
)

// Tree computes TWGR step 4 for one net: a minimum spanning tree over the
// complete graph of its nodes, where only nodes in adjacent rows (sharing a
// channel) are connectable at cost |dx|. It writes the len(nodes)-1 edges
// into wires, which must have exactly that length — callers carve it out of
// an array sized by a prefix sum over net degrees — an edge's endpoints its
// wire's anchors, and returns the number of forced (non-adjacent) edges,
// zero whenever feedthrough assignment covered every row gap. A net of
// fewer than two nodes has no tree.
//
// The tree depends on nothing but nodes — never on the channel occupancy —
// so calls for different nets are independent and safe to fan out, each
// worker with its own Connector. Switchable edges are left in their lower
// channel; PlaceWires makes the occupancy-dependent choice afterwards.
//
// The MST is computed exactly without materializing the complete graph:
// within one channel the |dx| metric is one-dimensional, so some MST uses
// only consecutive-by-x pairs; Kruskal over those candidates (O(n log n))
// replaces the O(n^2) Prim, which matters for multi-thousand-pin clock
// nets. Disconnected adjacency components (which a correct feedthrough
// assignment never produces) are chained with forced edges, each in the
// channel above its lower endpoint's row, so every net stays electrically
// complete.
func (cn *Connector) Tree(netID int, nodes []Node, wires []metrics.Wire) (forced int) {
	if len(nodes) < 2 {
		return 0
	}
	uf := &cn.uf
	uf.reset(len(nodes))
	k := 0
	for _, e := range cn.candidates(nodes) {
		if !uf.union(e.u, e.v) {
			continue
		}
		ch, both, _ := adjacent(nodes[e.u], nodes[e.v])
		w := edgeWire(netID, nodes[e.u], nodes[e.v], ch)
		// A switchable edge joins two Both-sided nodes of row ch: its
		// candidate channels are ch and ch+1.
		w.Switchable = both
		wires[k] = w
		k++
		if k == len(wires) {
			return 0 // spanning: every remaining candidate closes a cycle
		}
	}
	// Chain the remaining components (deterministically, lowest indices
	// first) with forced edges.
	prev := -1
	for i := range nodes {
		if uf.find(i) != i {
			continue
		}
		if prev >= 0 {
			uf.union(prev, i)
			wires[k] = edgeWire(netID, nodes[prev], nodes[i], int(min(nodes[prev].Row, nodes[i].Row))+1)
			k++
			forced++
		}
		prev = i
	}
	return forced
}

// ConnectNets is step 4 over nets 0..nets-1, split on what reads shared
// state. A net's tree depends only on the net's own nodes, so a prefix sum
// over degree gives net n, of k = degree(n) >= 2 nodes, its k-1 slots in one
// wire array, and the trees are built straight into their slots on up to
// workers goroutines, each with its own Connector. Only the channel of a
// switchable wire reads the occupancy: PlaceWires then streams the array
// through occ in net order. Nothing the workers compute depends on order and
// the sweep keeps it wherever it matters, so the wires — returned with the
// number of forced edges — are byte-identical at every worker count.
//
// nodesOf returns net n's degree(n) nodes and is called once per net of two
// or more, from the worker that builds it. buf has that length and is the
// worker's own scratch, for a caller that has to make the nodes: fill and
// return it. A caller that holds them already returns its own slice.
func ConnectNets(ctx context.Context, workers, nets int, degree func(n int) int,
	nodesOf func(n int, buf []Node) []Node, occ *Occupancy) (wires []metrics.Wire, forced int, err error) {

	off := make([]int, nets+1)
	for n := 0; n < nets; n++ {
		off[n+1] = off[n] + geom.Max(degree(n)-1, 0)
	}
	wires = make([]metrics.Wire, off[nets])
	builders := make([]struct {
		cn     Connector
		nodes  []Node
		forced int
		_      workpool.Pad
	}, geom.Max(workers, 1))
	err = workpool.DoChunks(ctx, workers, nets, workpool.Grain(nets, workers), func(w, lo, hi int) error {
		b := &builders[w]
		for n := lo; n < hi; n++ {
			if off[n+1] == off[n] {
				continue
			}
			k := off[n+1] - off[n] + 1
			b.nodes = slices.Grow(b.nodes[:0], k)
			b.forced += b.cn.Tree(n, nodesOf(n, b.nodes[:k]), wires[off[n]:off[n+1]])
		}
		return nil
	})
	if err == nil {
		err = occ.PlaceWires(ctx, workers, wires)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("route: connect: %w", err)
	}
	for i := range builders {
		forced += builders[i].forced
	}
	return wires, forced, nil
}

// PlaceWires streams wires, in order, into the occupancy: a switchable
// wire moves to its upper channel when adding it there is cheaper than in
// the lower one at that moment, and every wire is then added where it
// sits. This is the one part of step 4 that reads shared state, so its
// order — net order, tree order within a net — is part of the routing
// result; it runs as an ordered band sweep (workpool.Sweep) on up to workers
// goroutines, a switchable wire confined to channels Row and Row+1 and any
// other to its own, which places wires of different row bands side by side
// with the serial outcome.
func (o *Occupancy) PlaceWires(ctx context.Context, workers int, wires []metrics.Wire) error {
	sw, err := workpool.NewSweep(ctx, workers, len(wires), o.Channels, func(i int) workpool.Hull {
		w := &wires[i]
		if w.Switchable {
			return workpool.Hull{Lo: w.ARow, Hi: w.ARow + 1}
		}
		return workpool.Hull{Lo: w.Channel, Hi: w.Channel}
	}, o.counts.Reserve)
	if err != nil {
		return err
	}
	return sw.Run(ctx, nil, func(_, i int) error {
		w := &wires[i]
		span := w.Span()
		if w.Switchable && o.AddCost(int(w.ARow)+1, span) < o.AddCost(int(w.ARow), span) {
			w.Channel = w.ARow + 1
		}
		o.Add(int(w.Channel), span, 1)
		return nil
	})
}

// candidates computes the sorted candidate-edge list of one net. The
// returned slice is the Connector's scratch, valid only until the next
// call.
func (cn *Connector) candidates(nodes []Node) []connCand {
	// One sorted pass over (channel, x, index) incidences replaces the
	// per-channel bucket maps: consecutive entries of the same channel are
	// exactly the consecutive-by-x pairs of that channel's bucket. When the
	// values fit the key bit budget (always, for realistic circuits) both
	// sorts run comparator-free over packed int64 keys — net connection is
	// dominated by sorting many tiny slices, where the generic comparator
	// machinery costs more than the sort itself.
	entries := cn.entries[:0]
	pack := len(nodes) <= 1<<packIdxBits
	for i := range nodes {
		lo, hi, _ := nodes[i].Channels()
		if hi >= 1<<(63-packIdxBits-packXBits) {
			pack = false
		}
		x := int(nodes[i].X)
		entries = append(entries, chEntry{ch: lo, x: x, idx: i})
		if hi != lo {
			entries = append(entries, chEntry{ch: hi, x: x, idx: i})
		}
	}
	if pack {
		keys := cn.keys[:0]
		for _, e := range entries {
			keys = append(keys, int64(e.ch)<<(packIdxBits+packXBits)|int64(e.x)<<packIdxBits|int64(e.idx))
		}
		slices.Sort(keys)
		for i, k := range keys {
			entries[i] = chEntry{
				ch:  int(k >> (packIdxBits + packXBits)),
				x:   int(k >> packIdxBits & (1<<packXBits - 1)),
				idx: int(k & (1<<packIdxBits - 1)),
			}
		}
		cn.keys = keys
	} else {
		slices.SortFunc(entries, func(a, b chEntry) int {
			if a.ch != b.ch {
				return cmp.Compare(a.ch, b.ch)
			}
			if a.x != b.x {
				return cmp.Compare(a.x, b.x)
			}
			return cmp.Compare(a.idx, b.idx)
		})
	}
	cn.entries = entries

	cands := cn.cands[:0]
	packCands := pack
	for i := 1; i < len(entries); i++ {
		if entries[i].ch != entries[i-1].ch {
			continue
		}
		w := int64(entries[i].x - entries[i-1].x)
		if w >= 1<<(63-2*packIdxBits) {
			packCands = false
		}
		cands = append(cands, connCand{w: w, u: entries[i-1].idx, v: entries[i].idx})
	}
	if packCands {
		keys := cn.keys[:0]
		for _, c := range cands {
			keys = append(keys, c.w<<(2*packIdxBits)|int64(c.u)<<packIdxBits|int64(c.v))
		}
		slices.Sort(keys)
		for i, k := range keys {
			cands[i] = connCand{
				w: k >> (2 * packIdxBits),
				u: int(k >> packIdxBits & (1<<packIdxBits - 1)),
				v: int(k & (1<<packIdxBits - 1)),
			}
		}
		cn.keys = keys
	} else {
		slices.SortFunc(cands, func(a, b connCand) int {
			if a.w != b.w {
				return cmp.Compare(a.w, b.w)
			}
			if a.u != b.u {
				return cmp.Compare(a.u, b.u)
			}
			return cmp.Compare(a.v, b.v)
		})
	}
	cn.cands = cands
	return cands
}

// unionFind is a plain disjoint-set structure with path halving.
type unionFind struct {
	parent []int
}

// reset re-initializes the structure for n singleton sets, reusing the
// parent slice when it is large enough.
func (u *unionFind) reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int, n)
	}
	u.parent = u.parent[:n]
	for i := range u.parent {
		u.parent[i] = i
	}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union merges the sets of a and b, returning false if already joined.
// The smaller root index wins, keeping results order-independent.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	return true
}

package route

import (
	"context"
	"slices"
	"testing"
	"unsafe"

	"parroute/internal/circuit"
	"parroute/internal/geom"
	"parroute/internal/metrics"
	"parroute/internal/mst"
	"parroute/internal/rng"
)

// ConnectNodes is step 4 for one net with fresh scratch, the tests' per-net
// form of ConnectNets: Tree, then, when occ is not nil, PlaceWires into the
// live occupancy the caller streams its nets through. A nil occ leaves
// switchable wires in their lower channel.
func ConnectNodes(netID int, nodes []Node, occ *Occupancy) (wires []metrics.Wire, forced int) {
	if len(nodes) < 2 {
		return nil, 0
	}
	var cn Connector
	wires = make([]metrics.Wire, len(nodes)-1)
	forced = cn.Tree(netID, nodes, wires)
	if occ != nil {
		// The background context never ends, so placement cannot fail.
		_ = occ.PlaceWires(context.Background(), 1, wires)
	}
	return wires, forced
}

// TestNodeStaysSmall pins the size of step 4's node arena entry: 12 bytes,
// two int32 fields and the side (24 with int fields).
func TestNodeStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 12 {
		t.Fatalf("Node is %d bytes, at most 12 expected", size)
	}
}

func TestAdjacent(t *testing.T) {
	n := func(row int32, side circuit.Side) Node { return Node{Row: row, Side: side} }
	cases := []struct {
		a, b     Node
		wantOK   bool
		wantCh   int
		wantBoth bool
	}{
		{n(2, circuit.Bottom), n(2, circuit.Bottom), true, 2, false},
		{n(2, circuit.Bottom), n(2, circuit.Top), false, 0, false},
		{n(2, circuit.Top), n(3, circuit.Bottom), true, 3, false},
		{n(2, circuit.Both), n(2, circuit.Both), true, 2, true},
		{n(2, circuit.Both), n(2, circuit.Bottom), true, 2, false},
		{n(2, circuit.Both), n(3, circuit.Both), true, 3, false},
		{n(2, circuit.Bottom), n(4, circuit.Bottom), false, 0, false},
		{n(2, circuit.Both), n(3, circuit.Top), false, 0, false},
	}
	for i, tc := range cases {
		ch, both, ok := adjacent(tc.a, tc.b)
		if ok != tc.wantOK || (ok && (ch != tc.wantCh || both != tc.wantBoth)) {
			t.Errorf("case %d: adjacent = (%d, %v, %v), want (%d, %v, %v)",
				i, ch, both, ok, tc.wantCh, tc.wantBoth, tc.wantOK)
		}
		// Symmetry.
		ch2, both2, ok2 := adjacent(tc.b, tc.a)
		if ch2 != ch || both2 != both || ok2 != ok {
			t.Errorf("case %d: adjacent not symmetric", i)
		}
	}
}

func TestConnectNodesTrivial(t *testing.T) {
	if wires, forced := ConnectNodes(0, nil, nil); wires != nil || forced != 0 {
		t.Fatal("empty node list")
	}
	one := []Node{{X: 5, Row: 1, Side: circuit.Bottom}}
	if wires, _ := ConnectNodes(0, one, nil); wires != nil {
		t.Fatal("single node should produce no wires")
	}
}

func TestConnectNodesChain(t *testing.T) {
	// Pins in channel 2 at x = 0, 10, 30: tree must be the consecutive
	// chain with total span 30.
	nodes := []Node{
		{X: 30, Row: 2, Side: circuit.Bottom},
		{X: 0, Row: 2, Side: circuit.Bottom},
		{X: 10, Row: 2, Side: circuit.Bottom},
	}
	wires, forced := ConnectNodes(7, nodes, nil)
	if forced != 0 || len(wires) != 2 {
		t.Fatalf("wires=%d forced=%d", len(wires), forced)
	}
	var total int64
	for _, w := range wires {
		if w.Net != 7 {
			t.Fatalf("net = %d", w.Net)
		}
		total += int64(geom.Abs(int(w.AX - w.BX)))
	}
	if total != 30 {
		t.Fatalf("total span = %d, want 30", total)
	}
}

func TestConnectNodesFeedthroughChain(t *testing.T) {
	// A pin in channel 1, feedthroughs in rows 1..3, a pin in channel 4:
	// the chain through the feedthroughs connects them without forcing.
	nodes := []Node{
		{X: 100, Row: 1, Side: circuit.Bottom}, // channel 1
		{X: 100, Row: 1, Side: circuit.Both},   // ft row 1: {1,2}
		{X: 100, Row: 2, Side: circuit.Both},   // ft row 2: {2,3}
		{X: 100, Row: 3, Side: circuit.Both},   // ft row 3: {3,4}
		{X: 250, Row: 4, Side: circuit.Bottom}, // channel 4
	}
	wires, forced := ConnectNodes(0, nodes, nil)
	if forced != 0 {
		t.Fatalf("forced = %d", forced)
	}
	if len(wires) != 4 {
		t.Fatalf("%d wires", len(wires))
	}
	// Exactly one wire should have nonzero extent (the 150-unit hop).
	long := 0
	for _, w := range wires {
		if w.Span().Len() > 1 {
			long++
			if w.Span() != geom.NewInterval(100, 250) {
				t.Fatalf("long wire span %v", w.Span())
			}
		}
	}
	if long != 1 {
		t.Fatalf("%d long wires, want 1", long)
	}
}

func TestConnectNodesForcedFallback(t *testing.T) {
	// Two pins with a row gap and no feedthroughs: must connect anyway,
	// flagged as forced.
	nodes := []Node{
		{X: 0, Row: 0, Side: circuit.Bottom},
		{X: 0, Row: 5, Side: circuit.Bottom},
	}
	// The forced wire sits in the channel above the lower endpoint's row,
	// which the other endpoint cannot reach.
	wires, forced := ConnectNodes(0, nodes, nil)
	if forced != 1 || len(wires) != 1 || wires[0].Switchable || wires[0].Channel != 1 {
		t.Fatalf("wires=%+v forced=%d", wires, forced)
	}
}

func TestConnectNodesSwitchableDetection(t *testing.T) {
	nodes := []Node{
		{X: 0, Row: 2, Side: circuit.Both},
		{X: 40, Row: 2, Side: circuit.Both},
		{X: 80, Row: 2, Side: circuit.Bottom},
	}
	wires, _ := ConnectNodes(0, nodes, nil)
	sw, fixed := 0, 0
	for _, w := range wires {
		if w.Switchable {
			sw++
			if w.Row() != 2 {
				t.Fatalf("switchable row = %d", w.Row())
			}
		} else {
			fixed++
			if w.Channel != 2 {
				t.Fatalf("fixed wire in channel %d", w.Channel)
			}
		}
	}
	if sw != 1 || fixed != 1 {
		t.Fatalf("sw=%d fixed=%d", sw, fixed)
	}
}

func TestConnectNodesGreedyChannelChoice(t *testing.T) {
	// With a congested lower channel, the switchable connection must pick
	// the upper one.
	occ := NewOccupancy(5, 200, 16)
	occ.Add(2, geom.NewInterval(0, 199), 5) // channel 2 busy
	nodes := []Node{
		{X: 0, Row: 2, Side: circuit.Both},
		{X: 100, Row: 2, Side: circuit.Both},
	}
	wires, _ := ConnectNodes(0, nodes, occ)
	if len(wires) != 1 || !wires[0].Switchable {
		t.Fatalf("wires = %+v", wires)
	}
	if wires[0].Channel != 3 {
		t.Fatalf("picked channel %d, want the empty 3", wires[0].Channel)
	}
	// And the wire was recorded in the occupancy.
	if occ.At(3, 0) != 1 {
		t.Fatal("wire not streamed into occupancy")
	}
}

func TestConnectNodesMatchesPrimCost(t *testing.T) {
	// The sparse Kruskal must produce trees of the same total cost as the
	// O(n^2) Prim on the same adjacency-restricted metric.
	r := rng.New(17)
	sides := []circuit.Side{circuit.Bottom, circuit.Top, circuit.Both}
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(30)
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = Node{X: int32(r.Intn(500)), Row: int32(r.Intn(6)), Side: sides[r.Intn(3)]}
		}
		cost := func(i, j int) int64 {
			if _, _, ok := adjacent(nodes[i], nodes[j]); ok {
				return int64(geom.Abs(int(nodes[i].X - nodes[j].X)))
			}
			return mst.Infinite
		}
		edges, primForced := mst.Prim(n, cost)
		wires, kruskalForced := ConnectNodes(0, nodes, nil)
		if (primForced > 0) != (kruskalForced > 0) {
			t.Fatalf("trial %d: forced disagreement (prim %d, kruskal %d)",
				trial, primForced, kruskalForced)
		}
		if primForced > 0 {
			continue // costs incomparable once forced edges differ
		}
		var primCost, kruskalCost int64
		for _, e := range edges {
			primCost += cost(e.U, e.V)
		}
		for _, w := range wires {
			kruskalCost += int64(geom.Abs(int(w.AX - w.BX)))
		}
		if primCost != kruskalCost {
			t.Fatalf("trial %d: kruskal cost %d != prim cost %d", trial, kruskalCost, primCost)
		}
	}
}

func TestConnectNodesSpansEverything(t *testing.T) {
	r := rng.New(23)
	sides := []circuit.Side{circuit.Bottom, circuit.Top, circuit.Both}
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(50)
		// Distinct x per node, so a wire's anchors name its two nodes.
		nodes := make([]Node, n)
		byX := map[int32]int{}
		for i, x := range r.Perm(500)[:n] {
			nodes[i] = Node{X: int32(x), Row: int32(r.Intn(8)), Side: sides[r.Intn(3)]}
			byX[int32(x)] = i
		}
		wires, _ := ConnectNodes(0, nodes, nil)
		if len(wires) != n-1 {
			t.Fatalf("trial %d: %d wires for %d nodes", trial, len(wires), n)
		}
		uf := newUnionFind(n)
		for _, w := range wires {
			u, v := byX[w.AX], byX[w.BX]
			if nodes[u].Row != w.ARow || nodes[v].Row != w.BRow {
				t.Fatalf("trial %d: wire %+v is anchored off its nodes", trial, w)
			}
			uf.union(u, v)
		}
		root := uf.find(0)
		for i := 1; i < n; i++ {
			if uf.find(i) != root {
				t.Fatalf("trial %d: tree does not span", trial)
			}
		}
	}
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{}
	uf.reset(n)
	return uf
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	if !uf.union(0, 1) || uf.union(1, 0) {
		t.Fatal("union result wrong")
	}
	if uf.find(0) != uf.find(1) {
		t.Fatal("not merged")
	}
	if uf.find(2) == uf.find(0) {
		t.Fatal("spurious merge")
	}
	uf.union(2, 3)
	uf.union(0, 3)
	for i := 0; i < 4; i++ {
		if uf.find(i) != uf.find(0) {
			t.Fatal("chain merge failed")
		}
	}
	if uf.find(4) == uf.find(0) {
		t.Fatal("node 4 should be separate")
	}
}

// refConnectStreamed is step 4 as it ran before the tree build was split
// from the occupancy stream: one Kruskal pass per net that prices each
// switchable edge against the live occupancy and adds every edge to it as
// it is accepted. It survives here as the differential reference.
func refConnectStreamed(cn *Connector, netID int, nodes []Node, occ *Occupancy) (wires []metrics.Wire, forced int) {
	if len(nodes) < 2 {
		return nil, 0
	}
	wire := func(u, v Node, ch int) metrics.Wire {
		return metrics.Wire{Net: int32(netID), Channel: int32(ch), AX: u.X, ARow: u.Row, BX: v.X, BRow: v.Row}
	}
	uf := newUnionFind(len(nodes))
	for _, e := range cn.candidates(nodes) {
		if !uf.union(e.u, e.v) {
			continue
		}
		u, v := nodes[e.u], nodes[e.v]
		ch, both, _ := adjacent(u, v)
		w := wire(u, v, ch)
		if both {
			w.Switchable = true
			if occ.AddCost(ch+1, w.Span()) < occ.AddCost(ch, w.Span()) {
				w.Channel = int32(ch + 1)
			}
		}
		occ.Add(int(w.Channel), w.Span(), 1)
		wires = append(wires, w)
	}
	if len(wires) < len(nodes)-1 {
		prev := -1
		for i := range nodes {
			if uf.find(i) != i {
				continue
			}
			if prev >= 0 {
				uf.union(prev, i)
				w := wire(nodes[prev], nodes[i], int(min(nodes[prev].Row, nodes[i].Row))+1)
				occ.Add(int(w.Channel), w.Span(), 1)
				wires = append(wires, w)
				forced++
			}
			prev = i
		}
	}
	return wires, forced
}

// TestTreeThenPlaceMatchesStreamedKruskal: building every net's tree first
// (into prefix-sum slots, lower channels) and then placing the whole wire
// array against the occupancy gives the wires, forced counts and final
// occupancy of the net-by-net streamed form — on nets with forced edges,
// zero-length edges, congested channels and one 5000-pin net — through
// ConnectNets at one and three workers, and through ConnectNodes net by net.
func TestTreeThenPlaceMatchesStreamedKruskal(t *testing.T) {
	r := rng.New(41)
	sides := []circuit.Side{circuit.Bottom, circuit.Top, circuit.Both, circuit.Both}
	const rows, width = 9, 4000
	var nets [][]Node
	for n := 0; n < 300; n++ {
		k := r.Intn(12) // 0- and 1-node nets included
		if n == 17 {
			k = 5000
		}
		nodes := make([]Node, k)
		for i := range nodes {
			nodes[i] = Node{X: int32(r.Intn(width)), Row: int32(r.Intn(rows)), Side: sides[r.Intn(4)]}
			if i > 0 && r.Intn(6) == 0 {
				nodes[i].X = nodes[i-1].X // zero-length edges
			}
		}
		if n%7 == 0 && k >= 2 {
			// Rows two apart with single-channel sides: no shared channel,
			// so the tree needs forced edges.
			nodes[0].Row, nodes[0].Side = 0, circuit.Bottom
			nodes[1].Row, nodes[1].Side = rows-1, circuit.Top
		}
		nets = append(nets, nodes)
	}
	newOcc := func() *Occupancy {
		occ := NewOccupancy(rows+1, width, 16)
		occ.Add(3, geom.NewInterval(0, width/2), 4) // congestion the choices react to
		return occ
	}

	var wantWires []metrics.Wire
	wantForced, wantOcc := 0, newOcc()
	var cn Connector
	for n, nodes := range nets {
		wires, f := refConnectStreamed(&cn, n, nodes, wantOcc)
		wantForced += f
		wantWires = append(wantWires, wires...)
	}
	if wantForced == 0 {
		t.Fatal("no forced edge in the reference")
	}
	if !slices.ContainsFunc(wantWires, func(w metrics.Wire) bool { return w.Switchable && w.Channel == w.ARow+1 }) {
		t.Fatal("no switchable wire chose its upper channel in the reference")
	}

	for _, workers := range []int{1, 3} {
		gotOcc := newOcc()
		gotWires, gotForced, err := ConnectNets(context.Background(), workers, len(nets),
			func(n int) int { return len(nets[n]) },
			func(n int, buf []Node) []Node {
				if n%2 == 0 {
					return nets[n] // a caller that holds the nodes
				}
				copy(buf, nets[n]) // and one that makes them in the worker's scratch
				return buf
			}, gotOcc)
		if err != nil {
			t.Fatal(err)
		}
		if gotForced != wantForced {
			t.Fatalf("workers=%d: forced %d, streamed form %d", workers, gotForced, wantForced)
		}
		if !slices.Equal(gotWires, wantWires) {
			t.Fatalf("workers=%d: wires differ from the streamed form (%d vs %d)", workers, len(gotWires), len(wantWires))
		}
		if !slices.Equal(gotOcc.Counts(), wantOcc.Counts()) {
			t.Fatalf("workers=%d: final occupancy differs from the streamed form", workers)
		}
	}

	// ConnectNodes, net by net against one occupancy, is the same stream.
	perNetOcc := newOcc()
	at := 0
	for n, nodes := range nets {
		wires, _ := ConnectNodes(n, nodes, perNetOcc)
		if !slices.Equal(wires, wantWires[at:at+len(wires)]) {
			t.Fatalf("net %d: ConnectNodes differs from the streamed form", n)
		}
		at += len(wires)
	}
	if at != len(wantWires) || !slices.Equal(perNetOcc.Counts(), wantOcc.Counts()) {
		t.Fatal("ConnectNodes stream: wire count or occupancy differs")
	}
}

package route

import (
	"context"
	"slices"
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/geom"
	"parroute/internal/metrics"
	"parroute/internal/mst"
	"parroute/internal/rng"
)

func TestAdjacent(t *testing.T) {
	n := func(row int, side circuit.Side) Node { return Node{Row: row, Side: side} }
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
	if conns, forced := ConnectNodes(0, nil, nil); conns != nil || forced != 0 {
		t.Fatal("empty node list")
	}
	one := []Node{{X: 5, Row: 1, Side: circuit.Bottom}}
	if conns, _ := ConnectNodes(0, one, nil); conns != nil {
		t.Fatal("single node should produce no connections")
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
	conns, forced := ConnectNodes(7, nodes, nil)
	if forced != 0 || len(conns) != 2 {
		t.Fatalf("conns=%d forced=%d", len(conns), forced)
	}
	var total int64
	for _, c := range conns {
		if c.Net != 7 {
			t.Fatalf("net = %d", c.Net)
		}
		total += int64(geom.Abs(nodes[c.U].X - nodes[c.V].X))
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
	conns, forced := ConnectNodes(0, nodes, nil)
	if forced != 0 {
		t.Fatalf("forced = %d", forced)
	}
	if len(conns) != 4 {
		t.Fatalf("%d connections", len(conns))
	}
	// Exactly one wire should have nonzero extent (the 150-unit hop).
	long := 0
	for _, c := range conns {
		w := c.Wire(nodes)
		if w.Span.Len() > 1 {
			long++
			if w.Span != geom.NewInterval(100, 250) {
				t.Fatalf("long wire span %v", w.Span)
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
	conns, forced := ConnectNodes(0, nodes, nil)
	if forced != 1 || len(conns) != 1 || !conns[0].Forced {
		t.Fatalf("conns=%+v forced=%d", conns, forced)
	}
}

func TestConnectNodesSwitchableDetection(t *testing.T) {
	nodes := []Node{
		{X: 0, Row: 2, Side: circuit.Both},
		{X: 40, Row: 2, Side: circuit.Both},
		{X: 80, Row: 2, Side: circuit.Bottom},
	}
	conns, _ := ConnectNodes(0, nodes, nil)
	sw, fixed := 0, 0
	for _, c := range conns {
		if c.Switchable {
			sw++
			if c.Row != 2 {
				t.Fatalf("switchable row = %d", c.Row)
			}
		} else {
			fixed++
			if c.Channel != 2 {
				t.Fatalf("fixed connection in channel %d", c.Channel)
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
	conns, _ := ConnectNodes(0, nodes, occ)
	if len(conns) != 1 || !conns[0].Switchable {
		t.Fatalf("conns = %+v", conns)
	}
	if conns[0].Channel != 3 {
		t.Fatalf("picked channel %d, want the empty 3", conns[0].Channel)
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
			nodes[i] = Node{X: r.Intn(500), Row: r.Intn(6), Side: sides[r.Intn(3)]}
		}
		cost := func(i, j int) int64 {
			if _, _, ok := adjacent(nodes[i], nodes[j]); ok {
				return int64(geom.Abs(nodes[i].X - nodes[j].X))
			}
			return mst.Infinite
		}
		edges, primForced := mst.Prim(n, cost)
		conns, kruskalForced := ConnectNodes(0, nodes, nil)
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
		for _, c := range conns {
			kruskalCost += int64(geom.Abs(nodes[c.U].X - nodes[c.V].X))
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
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = Node{X: r.Intn(500), Row: r.Intn(8), Side: sides[r.Intn(3)]}
		}
		conns, _ := ConnectNodes(0, nodes, nil)
		if len(conns) != n-1 {
			t.Fatalf("trial %d: %d conns for %d nodes", trial, len(conns), n)
		}
		uf := newUnionFind(n)
		for _, c := range conns {
			uf.union(c.U, c.V)
		}
		root := uf.find(0)
		for i := 1; i < n; i++ {
			if uf.find(i) != root {
				t.Fatalf("trial %d: tree does not span", trial)
			}
		}
	}
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
func refConnectStreamed(cn *Connector, netID int, nodes []Node, occ *Occupancy) (conns []Connection, forced int) {
	if len(nodes) < 2 {
		return nil, 0
	}
	uf := newUnionFind(len(nodes))
	for _, e := range cn.candidates(nodes) {
		if !uf.union(e.u, e.v) {
			continue
		}
		u, v := nodes[e.u], nodes[e.v]
		conn := Connection{Net: netID, U: e.u, V: e.v}
		ch, both, _ := adjacent(u, v)
		conn.Channel = ch
		if both {
			conn.Switchable = true
			conn.Row = ch
			span := connSpan(u.X, v.X)
			if occ.AddCost(ch+1, span) < occ.AddCost(ch, span) {
				conn.Channel = ch + 1
			}
		}
		occ.Add(conn.Channel, connSpan(u.X, v.X), 1)
		conns = append(conns, conn)
	}
	if len(conns) < len(nodes)-1 {
		prev := -1
		for i := range nodes {
			if uf.find(i) != i {
				continue
			}
			if prev >= 0 {
				uf.union(prev, i)
				u, v := nodes[prev], nodes[i]
				conn := Connection{
					Net: netID, U: prev, V: i, Forced: true,
					Channel: geom.Min(u.Row, v.Row) + 1,
				}
				occ.Add(conn.Channel, connSpan(u.X, v.X), 1)
				conns = append(conns, conn)
				forced++
			}
			prev = i
		}
	}
	return conns, forced
}

// TestTreeThenPlaceMatchesStreamedKruskal: building every net's tree first
// (into prefix-sum slots, lower channels) and then placing the whole wire
// array against the occupancy gives the connections, wires, forced counts
// and final occupancy of the net-by-net streamed form — on nets with
// forced edges, zero-length edges, congested channels and one 5000-pin net.
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
			nodes[i] = Node{X: r.Intn(width), Row: r.Intn(rows), Side: sides[r.Intn(4)], Pin: -1}
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

	var wantConns []Connection
	var wantWires []metrics.Wire
	wantForced, wantOcc := 0, newOcc()
	var cn Connector
	for n, nodes := range nets {
		conns, f := refConnectStreamed(&cn, n, nodes, wantOcc)
		wantForced += f
		for i := range conns {
			wantConns = append(wantConns, conns[i])
			wantWires = append(wantWires, conns[i].Wire(nodes))
		}
	}
	if wantForced == 0 {
		t.Fatal("no forced edge in the reference")
	}
	switched := 0
	for _, c := range wantConns {
		if c.Switchable && c.Channel == c.Row+1 {
			switched++
		}
	}
	if switched == 0 {
		t.Fatal("no switchable connection chose its upper channel in the reference")
	}

	off := make([]int, len(nets)+1)
	for n, nodes := range nets {
		off[n+1] = off[n] + geom.Max(len(nodes)-1, 0)
	}
	gotConns := make([]Connection, off[len(nets)])
	gotWires := make([]metrics.Wire, off[len(nets)])
	gotForced, gotOcc := 0, newOcc()
	for n, nodes := range nets {
		gotForced += cn.Tree(n, nodes, gotConns[off[n]:off[n+1]], gotWires[off[n]:off[n+1]])
	}
	if err := gotOcc.PlaceWires(context.Background(), 1, gotWires, gotConns); err != nil {
		t.Fatal(err)
	}
	if gotForced != wantForced {
		t.Fatalf("forced %d, streamed form %d", gotForced, wantForced)
	}
	if !slices.Equal(gotConns, wantConns) {
		t.Fatalf("connections differ from the streamed form (%d vs %d)", len(gotConns), len(wantConns))
	}
	if !slices.Equal(gotWires, wantWires) {
		t.Fatal("wires differ from the streamed form")
	}
	if !slices.Equal(gotOcc.Counts(), wantOcc.Counts()) {
		t.Fatal("final occupancy differs from the streamed form")
	}

	// ConnectNodes, net by net against one occupancy, is the same stream.
	perNetOcc := newOcc()
	at := 0
	for n, nodes := range nets {
		conns, _ := ConnectNodes(n, nodes, perNetOcc)
		if !slices.Equal(conns, wantConns[at:at+len(conns)]) {
			t.Fatalf("net %d: ConnectNodes differs from the streamed form", n)
		}
		at += len(conns)
	}
	if at != len(wantConns) || !slices.Equal(perNetOcc.Counts(), wantOcc.Counts()) {
		t.Fatal("ConnectNodes stream: connection count or occupancy differs")
	}
}

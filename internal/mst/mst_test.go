package mst

import (
	"testing"
	"testing/quick"

	"parroute/internal/rng"
)

func dist(pts [][2]int) func(i, j int) int64 {
	return func(i, j int) int64 {
		dx := pts[i][0] - pts[j][0]
		dy := pts[i][1] - pts[j][1]
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return int64(dx + dy)
	}
}

func TestPrimTrivial(t *testing.T) {
	if edges, forced := Prim(0, nil); len(edges) != 0 || forced != 0 {
		t.Fatal("empty graph should have empty tree")
	}
	if edges, forced := Prim(1, nil); len(edges) != 0 || forced != 0 {
		t.Fatal("single node should have empty tree")
	}
	edges, forced := Prim(2, func(i, j int) int64 { return 5 })
	if len(edges) != 1 || forced != 0 {
		t.Fatalf("2-node tree: %v forced=%d", edges, forced)
	}
}

func TestPrimKnownTree(t *testing.T) {
	// Collinear points: MST must be the chain of consecutive points.
	pts := [][2]int{{0, 0}, {10, 0}, {3, 0}, {7, 0}}
	edges, forced := Prim(len(pts), dist(pts))
	if forced != 0 {
		t.Fatalf("forced = %d", forced)
	}
	if got := TotalCost(edges, dist(pts)); got != 10 {
		t.Fatalf("MST cost = %d, want 10", got)
	}
}

func TestPrimSpansAllNodes(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(40)
		pts := make([][2]int, n)
		for i := range pts {
			pts[i] = [2]int{r.Intn(100), r.Intn(100)}
		}
		edges, forced := Prim(n, dist(pts))
		if forced != 0 {
			t.Fatalf("forced edges on a complete finite graph")
		}
		if len(edges) != n-1 {
			t.Fatalf("%d edges for %d nodes", len(edges), n)
		}
		// Union-find connectivity.
		parent := make([]int, n)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				x = parent[x]
			}
			return x
		}
		for _, e := range edges {
			if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
				t.Fatalf("edge %v out of range", e)
			}
			parent[find(e.U)] = find(e.V)
		}
		root := find(0)
		for i := 1; i < n; i++ {
			if find(i) != root {
				t.Fatal("tree does not span all nodes")
			}
		}
	}
}

func TestPrimMinimality(t *testing.T) {
	// Against brute force on small instances: compare total cost with the
	// minimum over all spanning trees found by exhaustive Kruskal-like
	// search (n <= 6 keeps it tractable via all edge subsets).
	r := rng.New(9)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(5)
		pts := make([][2]int, n)
		for i := range pts {
			pts[i] = [2]int{r.Intn(30), r.Intn(30)}
		}
		d := dist(pts)
		edges, _ := Prim(n, d)
		got := TotalCost(edges, d)

		// Brute force: enumerate all spanning trees via bitmask over the
		// n(n-1)/2 edges.
		type edge struct{ u, v int }
		var all []edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				all = append(all, edge{i, j})
			}
		}
		best := int64(1) << 60
		for mask := 0; mask < 1<<len(all); mask++ {
			if popcount(mask) != n-1 {
				continue
			}
			parent := make([]int, n)
			for i := range parent {
				parent[i] = i
			}
			var find func(int) int
			find = func(x int) int {
				for parent[x] != x {
					x = parent[x]
				}
				return x
			}
			ok := true
			var cost int64
			for b, e := range all {
				if mask&(1<<b) == 0 {
					continue
				}
				ru, rv := find(e.u), find(e.v)
				if ru == rv {
					ok = false
					break
				}
				parent[ru] = rv
				cost += d(e.u, e.v)
			}
			if ok && cost < best {
				best = cost
			}
		}
		if got != best {
			t.Fatalf("Prim cost %d, brute force %d (n=%d)", got, best, n)
		}
	}
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestPrimForcedEdges(t *testing.T) {
	// Two components only connectable through Infinite edges.
	cost := func(i, j int) int64 {
		sameSide := (i < 2) == (j < 2)
		if sameSide {
			return 1
		}
		return Infinite
	}
	edges, forced := Prim(4, cost)
	if len(edges) != 3 {
		t.Fatalf("%d edges", len(edges))
	}
	if forced != 1 {
		t.Fatalf("forced = %d, want 1", forced)
	}
}

func TestPrimPropertyRandom(t *testing.T) {
	// Tree cost never exceeds the star from node 0 (a valid spanning tree).
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(20)
		pts := make([][2]int, n)
		for i := range pts {
			pts[i] = [2]int{r.Intn(50), r.Intn(50)}
		}
		d := dist(pts)
		edges, _ := Prim(n, d)
		var star int64
		for i := 1; i < n; i++ {
			star += d(0, i)
		}
		return TotalCost(edges, d) <= star
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TotalCost sums the cost of the given edges under the cost function.
func TotalCost(edges []Edge, cost func(i, j int) int64) int64 {
	var total int64
	for _, e := range edges {
		total += cost(e.U, e.V)
	}
	return total
}

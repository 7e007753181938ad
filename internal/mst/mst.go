// Package mst computes minimum spanning trees over small dense graphs.
//
// TWGR uses MSTs twice: step 1 builds each net's approximate Steiner tree
// from the MST of its pins, and step 4 connects a net's pins and assigned
// feedthroughs with an MST over a complete graph restricted to entities in
// adjacent rows. Net degrees are small (tens, with rare thousands for clock
// nets), so an O(n^2) Prim is the right tool — no heap, no allocation noise.
package mst

import "math"

// Infinite marks a forbidden edge in a cost function. Prim avoids such
// edges whenever a spanning tree without them exists.
const Infinite int64 = math.MaxInt64 / 4

// Edge is an undirected tree edge between node indices U and V.
type Edge struct {
	U, V int
}

// Prim returns the n-1 edges of a minimum spanning tree of the complete
// graph on n nodes under the given cost function, along with the number of
// Infinite-cost edges it was forced to use (0 when the finite-cost subgraph
// is connected). cost must be symmetric; it is called O(n^2) times.
//
// n == 0 and n == 1 yield an empty tree. The edge list is in the order the
// nodes were attached, each edge pointing from the new node V to its
// attachment point U.
//
// Callers running Prim in a loop should reuse a Scratch instead; this
// wrapper allocates fresh working storage per call.
func Prim(n int, cost func(i, j int) int64) (edges []Edge, forced int) {
	var s Scratch
	return s.Prim(n, cost)
}

// Scratch carries Prim's working storage so repeated runs (one per net in
// TWGR's step 1) allocate nothing after the first large net. The zero
// value is ready to use; a Scratch is not safe for concurrent use.
//
// The fringe state (best cost, attachment point, in-tree flag) lives in a
// single contiguous arena of 16-byte nodes rather than three parallel
// slices: the O(n) pick and update loops touch every node's whole state,
// so one sequential stream replaces three, and a whole-circuit routing run
// makes one allocation here instead of three.
type Scratch struct {
	fringe []fringeNode
	edges  []Edge
}

// fringeNode is one node's Prim state. from doubles as the tree flag:
// fringeUnset marks an unreached node, fringeAttached a node already in
// the tree (its best is then meaningless), anything else is the fringe
// node's current cheapest attachment point.
type fringeNode struct {
	best int64
	from int32
}

const (
	fringeUnset    = -1
	fringeAttached = -2
)

// Prim is the allocation-reusing form of the package-level Prim. The
// returned edge slice is the Scratch's own buffer and is valid only until
// the next call — callers that retain edges must copy them.
func (s *Scratch) Prim(n int, cost func(i, j int) int64) (edges []Edge, forced int) {
	if n <= 1 {
		return nil, 0
	}
	if cap(s.fringe) < n {
		s.fringe = make([]fringeNode, n)
	}
	fringe := s.fringe[:n]
	fringe[0] = fringeNode{best: math.MaxInt64, from: fringeAttached}
	for j := 1; j < n; j++ {
		fringe[j] = fringeNode{best: cost(0, j), from: 0}
	}
	edges = s.edges[:0]
	for len(edges) < n-1 {
		// Pick the cheapest fringe node.
		v, vc := fringeUnset, int64(math.MaxInt64)
		for j := 0; j < n; j++ {
			if fringe[j].from != fringeAttached && fringe[j].best < vc {
				v, vc = j, fringe[j].best
			}
		}
		if v == fringeUnset {
			// All remaining costs are MaxInt64; attach arbitrarily to node
			// 0 so the result is still a spanning tree.
			for j := 0; j < n; j++ {
				if fringe[j].from != fringeAttached {
					v = j
					fringe[j].from = 0
					vc = Infinite
					break
				}
			}
		}
		if vc >= Infinite {
			forced++
		}
		edges = append(edges, Edge{U: int(fringe[v].from), V: v})
		fringe[v].from = fringeAttached
		for j := 0; j < n; j++ {
			if fringe[j].from != fringeAttached {
				if c := cost(v, j); c < fringe[j].best {
					fringe[j].best = c
					fringe[j].from = int32(v)
				}
			}
		}
	}
	s.edges = edges
	return edges, forced
}

// Package partition implements the work-division policies of the paper's
// §3–§5: contiguous row blocks (cells and their pins follow their rows),
// and the four net-partition heuristics — center, locus, density and
// pin-number-weight — used to spread nets (and their pins) across
// processors while balancing pin counts.
package partition

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"parroute/internal/circuit"
	"parroute/internal/steiner"
)

// RowBlock is a contiguous range of rows owned by one worker, inclusive.
type RowBlock struct {
	Lo, Hi int
}

// Rows returns the number of rows in the block.
func (b RowBlock) Rows() int { return b.Hi - b.Lo + 1 }

// Contains reports whether row r falls in the block.
func (b RowBlock) Contains(r int) bool { return r >= b.Lo && r <= b.Hi }

// RowBlocks splits the circuit's rows into p contiguous blocks balanced by
// cell count (the memory and work proxy the paper partitions by). Every
// block is non-empty; p must not exceed the row count.
func RowBlocks(c *circuit.Circuit, p int) ([]RowBlock, error) {
	n := len(c.Rows)
	if p <= 0 {
		return nil, fmt.Errorf("partition: p must be positive, got %d", p)
	}
	if p > n {
		return nil, fmt.Errorf("partition: %d workers for %d rows", p, n)
	}
	total := 0
	perRow := make([]int, n)
	for r := 0; r < n; r++ {
		perRow[r] = len(c.RowCells(r))
		total += perRow[r]
	}
	blocks := make([]RowBlock, 0, p)
	row := 0
	acc := 0
	for k := 0; k < p; k++ {
		lo := row
		// Leave enough rows for the remaining blocks.
		remainingBlocks := p - k - 1
		target := (total - acc) / (p - k)
		sum := 0
		for row < n-remainingBlocks {
			sum += perRow[row]
			row++
			if sum >= target && row > lo {
				break
			}
		}
		// Guarantee at least one row.
		if row == lo {
			row++
			sum = perRow[lo]
		}
		acc += sum
		blocks = append(blocks, RowBlock{Lo: lo, Hi: row - 1})
	}
	blocks[p-1].Hi = n - 1
	return blocks, nil
}

// BlockOf returns the index of the block containing row r, or -1.
func BlockOf(blocks []RowBlock, r int) int {
	for k, b := range blocks {
		if b.Contains(r) {
			return k
		}
	}
	return -1
}

// Method selects a net-partition heuristic (paper §5).
type Method int

const (
	// PinWeight weights a net by -(pins^1.5), which orders nets by degree
	// descending (net ascending among equals, pinless nets last) and needs no
	// float key: large nets go first (Steiner cost is superlinear in pins) and
	// round-robin across processors so none gets all the clock nets. It is the
	// paper's recommendation and the zero value a Config nobody filled in has.
	PinWeight Method = iota
	// Center weights a net by the y coordinate of its pin centroid, so
	// vertically close nets — which compete for the same channels — land
	// on the same processor.
	Center
	// Locus clusters geometrically related nets by the lower-left corner
	// of their bounding box (y major, x as tie-break), after LocusRoute.
	Locus
	// Density weights a net by the row block holding most of its pins, so
	// nets land with the processor that owns their rows.
	Density
)

const largeFactor = 8 // how many times the average pin count makes a net "large" for PinWeight

func (m Method) String() string {
	switch m {
	case Center:
		return "center"
	case Locus:
		return "locus"
	case Density:
		return "density"
	case PinWeight:
		return "pinweight"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Methods lists all heuristics in the paper's order, for sweeps and
// ablations.
func Methods() []Method { return []Method{Center, Locus, Density, PinWeight} }

// Config selects a net partition.
type Config struct {
	Method Method
}

// Nets assigns every net an owner in [0, p) using the configured
// heuristic. blocks is only consulted by the Density method (it may be nil
// for the others). The paper's generic scheme: sort nets by weight, then
// fill processors in that order until each holds its share of the total
// pin count.
func Nets(c *circuit.Circuit, blocks []RowBlock, p int, cfg Config) ([]int, error) {
	if p <= 0 {
		return nil, fmt.Errorf("partition: p must be positive, got %d", p)
	}
	n := len(c.Nets)
	owner := make([]int, n)
	if p == 1 || n == 0 {
		return owner, nil
	}
	if cfg.Method == Density && len(blocks) != p {
		return nil, fmt.Errorf("partition: density method needs %d row blocks, got %d", p, len(blocks))
	}

	var entries []entry
	totalPins := 0
	if cfg.Method == PinWeight {
		entries, totalPins = byDegree(c)
	} else {
		entries = make([]entry, n)
		for i := range entries {
			totalPins += len(c.NetPins(i))
			entries[i] = entry{key: sortKey(weight(c, i, blocks, cfg.Method)), net: int32(i), pins: int32(len(c.NetPins(i)))}
		}
		entries = sortByKey(entries)
	}

	loads := make([]int, p)
	target := float64(totalPins) / float64(p)

	start := 0
	if cfg.Method == PinWeight {
		// Large nets first (they sort first: highest degree), in
		// round-robin so each processor gets its share of the giants.
		avg := float64(totalPins) / float64(n)
		rr := 0
		for start < len(entries) && float64(entries[start].pins) > largeFactor*avg {
			owner[entries[start].net] = rr % p
			loads[rr%p] += int(entries[start].pins)
			rr++
			start++
		}
	}

	// Fill processors in weight order until each reaches the average pin
	// count; the last processor absorbs the remainder.
	k := 0
	for _, e := range entries[start:] {
		for k < p-1 && float64(loads[k]) >= target {
			k++
		}
		owner[e.net] = k
		loads[k] += int(e.pins)
	}
	return owner, nil
}

// entry is one net in Nets' weight order: its weight as a sort key (unset
// under PinWeight, which sorts by pins), its index and its pin count.
type entry struct {
	key       uint64
	net, pins int32
}

// byDegree lists the nets in PinWeight's order, pins descending and net
// ascending among equals, by one counting sort over the degrees, and
// returns their total pin count.
func byDegree(c *circuit.Circuit) ([]entry, int) {
	maxDeg, total := 0, 0
	for i := range c.Nets {
		maxDeg, total = max(maxDeg, len(c.NetPins(i))), total+len(c.NetPins(i))
	}
	next := make([]int32, maxDeg+2) // next[maxDeg-d]: the next free slot of degree d
	for i := range c.Nets {
		next[maxDeg-len(c.NetPins(i))+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	out := make([]entry, len(c.Nets))
	for i := range c.Nets {
		k := maxDeg - len(c.NetPins(i))
		out[next[k]] = entry{net: int32(i), pins: int32(len(c.NetPins(i)))}
		next[k]++
	}
	return out, total
}

// sortKey maps a weight to a uint64 that orders as the weight does: the
// IEEE bits with the sign bit set on non-negative values and every bit
// flipped on negative ones. -0 is folded into +0 first, since the two
// compare equal. A weight is never NaN — every heuristic is finite
// arithmetic on pin counts and coordinates — so the image orders exactly as
// cmp.Compare on the weights.
func sortKey(w float64) uint64 {
	if w == 0 {
		w = 0
	}
	b := math.Float64bits(w)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortByKey sorts entries by key, ascending and stable, and returns the
// sorted slice (entries or a scratch of equal length). Nets appends entries
// in net order, so this is the (weight, net) order of the paper's scheme: an
// LSD radix sort, one histogram sweep for all eight bytes, skipping every
// byte on which all keys agree.
func sortByKey(entries []entry) []entry {
	if len(entries) < 2 {
		return entries
	}
	var count [8][256]int32
	for i := range entries {
		for b := range count {
			count[b][entries[i].key>>(8*b)&0xff]++
		}
	}
	src, dst := entries, make([]entry, len(entries))
	for b := range count {
		if int(count[b][src[0].key>>(8*b)&0xff]) == len(src) {
			continue
		}
		pos := int32(0)
		for d, n := range count[b] {
			count[b][d] = pos
			pos += n
		}
		for i := range src {
			d := src[i].key >> (8 * b) & 0xff
			dst[count[b][d]] = src[i]
			count[b][d]++
		}
		src, dst = dst, src
	}
	return src
}

func weight(c *circuit.Circuit, net int, blocks []RowBlock, m Method) float64 {
	pins := c.NetPins(net)
	if len(pins) == 0 {
		return 0
	}
	switch m {
	case Center:
		sum := 0
		for _, pid := range pins {
			sum += int(c.Pins[pid].Row)
		}
		return float64(sum) / float64(len(pins))
	case Locus:
		bb := c.NetBBox(net)
		return float64(bb.MinY)*float64(c.CoreWidth()+1) + float64(bb.MinX)
	case Density:
		counts := make([]int, len(blocks))
		for _, pid := range pins {
			if k := BlockOf(blocks, int(c.Pins[pid].Row)); k >= 0 {
				counts[k]++
			}
		}
		best, bestCount := 0, -1
		for k, cnt := range counts {
			if cnt > bestCount {
				best, bestCount = k, cnt
			}
		}
		return float64(best)
	}
	return 0
}

// LoadStats summarizes the balance of a net partition: pins per processor,
// and the imbalance ratio max/avg (1.0 is perfect).
type LoadStats struct {
	Pins      []int
	Imbalance float64
}

// Load computes LoadStats for an owner assignment.
func Load(c *circuit.Circuit, owner []int, p int) LoadStats {
	return loadBy(owner, p, func(net int) int { return len(c.NetPins(net)) })
}

// SteinerLoad computes the balance of the Steiner-tree construction cost,
// the quantity PinWeight is designed to balance. The cost model matches
// the implementation: d^2 for the exact Prim MST, d*log2(d) for nets above
// steiner.LargeNetThreshold (the row-chain fast path).
func SteinerLoad(c *circuit.Circuit, owner []int, p int) LoadStats {
	return loadBy(owner, p, func(net int) int {
		d := len(c.NetPins(net))
		if d > steiner.LargeNetThreshold {
			return d * bits.Len(uint(d))
		}
		return d * d
	})
}

// loadBy adds each net's cost to its owner's and rates the largest share
// against the average.
func loadBy(owner []int, p int, cost func(net int) int) LoadStats {
	st := LoadStats{Pins: make([]int, p)}
	total := 0
	for net, o := range owner {
		c := cost(net)
		st.Pins[o] += c
		total += c
	}
	if total == 0 {
		st.Imbalance = 1
		return st
	}
	st.Imbalance = float64(slices.Max(st.Pins)) * float64(p) / float64(total)
	return st
}

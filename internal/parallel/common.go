package parallel

import (
	"fmt"
	"slices"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/geom"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/partition"
	"parroute/internal/route"
	"parroute/internal/steiner"
)

// computeCrossings implements the fake-pin placement of §4: for every net
// this rank owns whose pins span more than one row block, build the net's
// Steiner tree and, wherever a segment's vertical run passes a partition
// boundary, emit a fake-pin spec for each of the two adjacent blocks at
// the crossing column (Figure 2). Returns one spec list per block.
func computeCrossings(c *circuit.Circuit, blocks []partition.RowBlock, owner []int, rank int) []FakePinBatch {
	specs := make([]FakePinBatch, len(blocks))
	if len(blocks) == 1 {
		return specs
	}
	var b steiner.Builder
	var segBuf []steiner.Segment
	for n := range c.Nets {
		if owner[n] != rank {
			continue
		}
		pins := c.NetPins(n)
		if len(pins) < 2 {
			continue
		}
		minRow, maxRow := c.Pins[pins[0]].Row, c.Pins[pins[0]].Row
		for _, pid := range pins[1:] {
			minRow, maxRow = min(minRow, c.Pins[pid].Row), max(maxRow, c.Pins[pid].Row)
		}
		if partition.BlockOf(blocks, int(minRow)) == partition.BlockOf(blocks, int(maxRow)) {
			continue // entirely within one block: no splitting needed
		}
		segBuf = b.AppendNet(segBuf[:0], c, n)
		for _, seg := range segBuf {
			ps := route.Place(c, seg)
			kp := partition.BlockOf(blocks, int(c.Pins[ps.PinAtP].Row))
			kq := partition.BlockOf(blocks, int(c.Pins[ps.PinAtQ].Row))
			if kp > kq {
				kp, kq = kq, kp
			}
			if kp == kq {
				continue // the owning block routes this segment whole
			}
			// The segment must be split at exactly the boundaries between
			// its endpoints' blocks. Each such boundary channel S lies in
			// the segment's channel range [CP, CQ].
			//
			// The crossing column matters: when an endpoint's own access
			// channel IS the boundary, the fake pin goes at that
			// endpoint's x, so the span between the endpoints stays on
			// the other side — where that block's coarse routing is still
			// free to place it in either adjacent channel, exactly as the
			// unsplit segment could. Crossings strictly inside the
			// vertical run sit at the run's column.
			runs := ps.CurrentRuns()
			for j := kp; j < kq; j++ {
				s := blocks[j+1].Lo
				var x int
				switch {
				case ps.CP == ps.CQ:
					x = (int(ps.XP) + int(ps.XQ)) / 2 // flat hand-off inside the channel
				case s >= int(ps.CQ):
					x = int(ps.XQ)
				case s <= int(ps.CP):
					x = int(ps.XP)
				default:
					x = runs.VCol
				}
				specs[j] = append(specs[j], FakePinSpec{
					Net: int32(n), X: int32(x), Row: int32(s - 1), Side: circuit.Top,
				})
				specs[j+1] = append(specs[j+1], FakePinSpec{
					Net: int32(n), X: int32(x), Row: int32(s), Side: circuit.Bottom,
				})
			}
		}
	}
	return specs
}

// badIndex attributes an out-of-range index inside a received batch to its
// source: indices that crossed the mesh are data, so a drifted or corrupt
// peer fails the run instead of panicking the rank.
func badIndex[T int | int32](tag, src, elem int, field string, v T, lo, hi int) error {
	return fmt.Errorf("parallel: tag %d batch from rank %d: element %d has %s %d outside [%d, %d]",
		tag, src, elem, field, v, lo, hi)
}

// sizedBatches returns one empty batch per rank with room for counts[k]
// elements, so the fill pass after a counting pass never regrows.
func sizedBatches[B ~[]E, E any](counts []int) []B {
	out := make([]B, len(counts))
	for k := range out {
		out[k] = slices.Grow(out[k], counts[k])
	}
	return out
}

// exchangeFakePins all-to-alls the fake-pin specs and returns this rank's,
// concatenated in source-rank order (deterministic). Every received spec
// must name a net of the circuit, a row of this rank's block and a
// non-negative x.
func exchangeFakePins(comm mp.Comm, specs []FakePinBatch, numNets int, block partition.RowBlock) ([]FakePinSpec, error) {
	in, err := mp.Alltoall(comm, tagFakePins, specs)
	if err != nil {
		return nil, err
	}
	for r, batch := range in {
		for i, sp := range batch {
			if sp.Net < 0 || int(sp.Net) >= numNets {
				return nil, badIndex(tagFakePins, r, i, "net", sp.Net, 0, numNets-1)
			}
			if !block.Contains(int(sp.Row)) {
				return nil, badIndex(tagFakePins, r, i, "row", sp.Row, block.Lo, block.Hi)
			}
			if sp.X < 0 {
				return nil, badIndex(tagFakePins, r, i, "x", sp.X, 0, circuit.MaxCoord)
			}
		}
	}
	return slices.Concat(in...), nil
}

// buildBlockCircuit constructs this block's row-wise sub-circuit from base,
// which it only reads, with the fake pins assigned to the block
// (circuit.Block). Per-rank memory scales with the block — the paper's
// motivation for the row partition — while row, channel and net IDs stay
// global, and each net keeps the base's pin order with its fakes after.
func buildBlockCircuit(base *circuit.Circuit, block partition.RowBlock, fakes []FakePinSpec) *circuit.Circuit {
	pins := make([]circuit.Pin, len(fakes))
	for i, f := range fakes {
		pins[i] = circuit.Pin{Net: f.Net, Cell: circuit.NoCell, X: f.X, Row: f.Row, Side: f.Side}
	}
	return base.Block(block.Lo, block.Hi, pins)
}

// syncBoundaryOccupancy exchanges the column counts of each shared
// boundary channel with the neighboring workers and adds theirs into occ
// as fixed background, so switchable-segment optimization evaluates flips
// against everything known to occupy the shared channel (§4: "the track
// information in the shared channel is synchronized between two adjacent
// processors").
func syncBoundaryOccupancy(comm mp.Comm, blocks []partition.RowBlock, occ *route.Occupancy) error {
	rank := comm.Rank()
	// Lower boundary: channel blocks[rank].Lo, shared with rank-1.
	if rank > 0 {
		if err := comm.Send(rank-1, tagBoundaryLo, occ.ChannelCounts(blocks[rank].Lo)); err != nil {
			return err
		}
	}
	// Upper boundary: channel blocks[rank+1].Lo, shared with rank+1.
	if rank+1 < comm.Size() {
		if err := comm.Send(rank+1, tagBoundaryHi, occ.ChannelCounts(blocks[rank+1].Lo)); err != nil {
			return err
		}
	}
	if rank > 0 {
		raw, err := comm.Recv(rank-1, tagBoundaryHi)
		if err != nil {
			return err
		}
		if err := addBoundaryCounts(occ, blocks[rank].Lo, tagBoundaryHi, rank-1, raw); err != nil {
			return err
		}
	}
	if rank+1 < comm.Size() {
		raw, err := comm.Recv(rank+1, tagBoundaryLo)
		if err != nil {
			return err
		}
		if err := addBoundaryCounts(occ, blocks[rank+1].Lo, tagBoundaryLo, rank+1, raw); err != nil {
			return err
		}
	}
	return nil
}

// addBoundaryCounts adds a neighbour's counts of shared channel ch into occ.
// They crossed the mesh: a payload of the wrong type, length or sign fails
// the run with its tag and source rank, and leaves occ as it was.
func addBoundaryCounts(occ *route.Occupancy, ch, tag, src int, raw any) error {
	counts, ok := raw.([]int32)
	if !ok {
		return fmt.Errorf("parallel: tag %d counts from rank %d arrived as %T", tag, src, raw)
	}
	if err := occ.AddChannelCounts(ch, counts); err != nil {
		return fmt.Errorf("parallel: tag %d batch from rank %d: %w", tag, src, err)
	}
	return nil
}

// runOutput is rank 0's collected run output, which Run merges into a
// Result after the run completes (quality evaluation is not routing work,
// so it stays outside the timed region — the serial baseline excludes its
// finalize the same way; the gather's communication cost is still paid
// inside the run). Every rank holds it; only rank 0 writes it.
type runOutput struct {
	wireBatches []WireBatch
	summaries   []Summary
}

// gatherResults collects every worker's wires and counters at rank 0 and
// stores the batches in out; other ranks just send.
func gatherResults(comm mp.Comm, wires []metrics.Wire, sum Summary, out *runOutput) error {
	wbs, err := mp.Gather(comm, 0, tagWires, WireBatch{Wires: wires})
	if err != nil {
		return err
	}
	sums, err := mp.Gather(comm, 0, tagSummary, sum)
	if err != nil {
		return err
	}
	if comm.Rank() == 0 {
		out.wireBatches, out.summaries = wbs, sums
	}
	return nil
}

// merge assembles the gathered batches into the final result.
func (out *runOutput) merge(base *circuit.Circuit, opt Options) (*metrics.Result, error) {
	res := &metrics.Result{Circuit: base.Name}
	var err error
	if res.Wires, err = concatWires(out.wireBatches, tagWires, base.NumChannels()); err != nil {
		return nil, err
	}
	for _, s := range out.summaries {
		res.Feedthroughs += s.InsertedFts
		res.ForcedEdges += s.ForcedEdges
		res.SwitchableWires += s.SwitchableWs
		res.SwitchFlips += s.SwitchFlips
		res.CoarseFlips += s.CoarseFlips
		res.CoreWidth = geom.Max(res.CoreWidth, s.CoreWidth)
	}
	res.Phases = mergePhases(out.summaries)
	// The ranks have finished, so the cores the run was given are idle.
	res.Finalize(base.NumChannels(), len(base.Rows), base.CellHeight, metrics.TrackPitch, opt.Procs)
	return res, nil
}

// mergePhases aggregates per-worker phase records into one timeline: the
// union of every rank's phase names in first-seen order (a phase a rank
// skipped — or one absent on rank 0 — is never dropped), the maximum
// elapsed across ranks per phase (a critical-path approximation), and the
// sum of each stage-scoped counter across ranks.
func mergePhases(summaries []Summary) []metrics.Phase {
	var order []string
	elapsed := map[string]time.Duration{}
	counters := map[string]map[string]int64{}
	counterOrder := map[string][]string{}
	for _, s := range summaries {
		for _, ph := range s.Phases {
			if _, seen := elapsed[ph.Name]; !seen {
				order = append(order, ph.Name)
				counters[ph.Name] = map[string]int64{}
			}
			if ph.Elapsed > elapsed[ph.Name] {
				elapsed[ph.Name] = ph.Elapsed
			}
			for _, c := range ph.Counters {
				if _, seen := counters[ph.Name][c.Name]; !seen {
					counterOrder[ph.Name] = append(counterOrder[ph.Name], c.Name)
				}
				counters[ph.Name][c.Name] += c.Value
			}
		}
	}
	out := make([]metrics.Phase, 0, len(order))
	for _, name := range order {
		ph := metrics.Phase{Name: name, Elapsed: elapsed[name]}
		for _, cn := range counterOrder[name] {
			ph.Counters = append(ph.Counters, metrics.Counter{Name: cn, Value: counters[name][cn]})
		}
		out = append(out, ph)
	}
	return out
}

// concatWires copies the WireBatches that arrived on tag, in rank order, into
// one exactly-sized slice, checking each wire as it copies it: it must lie in
// a channel and span no negative x; a switchable one must name a row and lie
// in one of that row's two channels.
func concatWires(in []WireBatch, tag, numChannels int) ([]metrics.Wire, error) {
	total := 0
	for _, wb := range in {
		total += len(wb.Wires)
	}
	wires := make([]metrics.Wire, 0, total)
	for r, wb := range in {
		for i := range wb.Wires {
			w := &wb.Wires[i]
			if w.Channel < 0 || int(w.Channel) >= numChannels {
				return nil, badIndex(tag, r, i, "channel", w.Channel, 0, numChannels-1)
			}
			if !w.Span.Empty() && w.Span.Lo < 0 {
				return nil, badIndex(tag, r, i, "span lo", w.Span.Lo, 0, circuit.MaxCoord)
			}
			if w.Switchable && (w.Row < 0 || int(w.Row) >= numChannels-1) {
				return nil, badIndex(tag, r, i, "row", w.Row, 0, numChannels-2)
			}
			if w.Switchable && w.Channel != w.Row && w.Channel != w.Row+1 {
				return nil, badIndex(tag, r, i, "channel", w.Channel, int(w.Row), int(w.Row)+1)
			}
			wires = append(wires, *w)
		}
	}
	return wires, nil
}

// ownPinNodes builds this rank's step-4 contributions: for every net, the
// real pins in the rank's block (authoritative post-insertion coordinates;
// fake pins are splitting artifacts and stay home), batched per net owner
// and sized exactly by a counting pass — but for the rank's own nets, which
// the returned selfNodes write straight into collectNodes' arena.
func ownPinNodes(sub *circuit.Circuit, block partition.RowBlock, owner []int, self, size int) ([]NodeBatch, selfNodes) {
	pins := func(own bool, emit func(NodeMsg)) {
		for n := range sub.Nets {
			if (owner[n] == self) != own {
				continue
			}
			for _, pid := range sub.NetPins(n) {
				if p := &sub.Pins[pid]; !p.Fake && block.Contains(int(p.Row)) {
					emit(NodeMsg{Net: int32(n), X: p.X, Row: p.Row, Side: p.Side})
				}
			}
		}
	}
	counts := make([]int, size)
	pins(false, func(nm NodeMsg) { counts[owner[nm.Net]]++ })
	out := sizedBatches[NodeBatch](counts)
	pins(false, func(nm NodeMsg) { out[owner[nm.Net]] = append(out[owner[nm.Net]], nm) })
	return out, func(emit func(NodeMsg)) { pins(true, emit) }
}

// selfNodes is a nodeSet's self: it emits, in batch order, the nodes a
// rank's NodeBatch to itself would hold.
type selfNodes func(emit func(NodeMsg))

// nodeSet is one Alltoall round of NodeBatches (one per source rank) and
// the tag it arrived on. self, when set, stands in for the receiving
// rank's batch to itself.
type nodeSet struct {
	tag  int
	in   []NodeBatch
	self selfNodes
}

// netNodes is step 4's node arena in CSR form: net n's nodes are
// nodes[off[n]:off[n+1]].
type netNodes struct {
	off   []int
	nodes []route.Node
}

// degree and of are what route.ConnectNets asks of a net: how many nodes, and
// which — the arena holds them, so the worker's scratch stays unused.
func (nn netNodes) degree(n int) int { return nn.off[n+1] - nn.off[n] }

func (nn netNodes) of(n int, _ []route.Node) []route.Node { return nn.nodes[nn.off[n]:nn.off[n+1]] }

// collectNodes groups NodeMsg contributions (already filtered to nets this
// rank owns) into one per-net arena: a count pass, a prefix sum, and a fill
// pass in set, rank, batch order — so every net's nodes sit in arrival
// order, a set's self at position me, the receiving rank's. The count pass
// is also the trust boundary: a net, row or x of a batch outside the circuit
// is an error naming the source rank and tag.
func collectNodes(numNets, numRows, me int, sets ...nodeSet) (netNodes, error) {
	off := make([]int, numNets+1)
	for _, set := range sets {
		for r, batch := range set.in {
			if r == me && set.self != nil {
				set.self(func(nm NodeMsg) { off[nm.Net+1]++ })
				continue
			}
			for i, nm := range batch {
				if nm.Net < 0 || int(nm.Net) >= numNets {
					return netNodes{}, badIndex(set.tag, r, i, "net", nm.Net, 0, numNets-1)
				}
				if nm.Row < 0 || int(nm.Row) >= numRows {
					return netNodes{}, badIndex(set.tag, r, i, "row", nm.Row, 0, numRows-1)
				}
				if nm.X < 0 {
					return netNodes{}, badIndex(set.tag, r, i, "x", nm.X, 0, circuit.MaxCoord)
				}
				off[nm.Net+1]++
			}
		}
	}
	for n := 0; n < numNets; n++ {
		off[n+1] += off[n]
	}
	nodes := make([]route.Node, off[numNets])
	cursor := slices.Clone(off[:numNets])
	put := func(nm NodeMsg) {
		nodes[cursor[nm.Net]] = route.Node{X: nm.X, Row: nm.Row, Side: nm.Side}
		cursor[nm.Net]++
	}
	for _, set := range sets {
		for r, batch := range set.in {
			if r == me && set.self != nil {
				set.self(put)
				continue
			}
			for _, nm := range batch {
				put(nm)
			}
		}
	}
	return netNodes{off: off, nodes: nodes}, nil
}

package parallel

import (
	"cmp"
	"fmt"
	"slices"

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
// peer fails the run instead of panicking the rank. A v in [lo, hi] is no
// error, so that cmp.Or over an element's checks reports its first bad one.
func badIndex[T int | int32](tag, src, elem int, field string, v T, lo, hi int) error {
	if lo <= int(v) && int(v) <= hi {
		return nil
	}
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
// must name a net of the circuit, a row of this rank's block, a
// non-negative x and the bottom or top side.
func exchangeFakePins(comm mp.Comm, specs []FakePinBatch, numNets int, block partition.RowBlock) ([]FakePinSpec, error) {
	in, err := mp.Alltoall(comm, tagFakePins, specs)
	if err != nil {
		return nil, err
	}
	for r, batch := range in {
		for i, sp := range batch {
			if err := cmp.Or(badIndex(tagFakePins, r, i, "net", sp.Net, 0, numNets-1), badIndex(tagFakePins, r, i, "row", sp.Row, block.Lo, block.Hi),
				badIndex(tagFakePins, r, i, "x", sp.X, 0, circuit.MaxCoord), badIndex(tagFakePins, r, i, "side", int(sp.Side), 0, int(circuit.Top))); err != nil {
				return nil, err
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

// merge assembles the gathered batches into the final result.
func (out *runOutput) merge(base *circuit.Circuit, opt Options) (*metrics.Result, error) {
	res := &metrics.Result{Circuit: base.Name}
	var err error
	if res.Wires, err = assembleWires(out.wireBatches, 0, tagWires, base.NumChannels()); err != nil {
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
	out := []metrics.Phase{}
	for _, s := range summaries {
		for _, ph := range s.Phases {
			i := slices.IndexFunc(out, func(m metrics.Phase) bool { return m.Name == ph.Name })
			if i < 0 {
				i, out = len(out), append(out, metrics.Phase{Name: ph.Name})
			}
			m := &out[i]
			m.Elapsed = max(m.Elapsed, ph.Elapsed)
			for _, c := range ph.Counters {
				j := slices.IndexFunc(m.Counters, func(mc metrics.Counter) bool { return mc.Name == c.Name })
				if j < 0 {
					j, m.Counters = len(m.Counters), append(m.Counters, metrics.Counter{Name: c.Name})
				}
				m.Counters[j].Value += c.Value
			}
		}
	}
	return out
}

// assembleWires joins the WireBatches that arrived on tag in rank order,
// in[self] being the rank's own, in the own array when its capacity holds
// them all, else in a fresh, exactly sized one. A peer's batch (under
// mp.Inproc the peer's memory) is only read, each wire checked as it is
// copied for what its derived Span and Row rely on: in a channel, no
// negative anchor x, and a switchable one with both anchors in one row and
// in one of that row's two channels.
func assembleWires(in []WireBatch, self, tag, numChannels int) ([]metrics.Wire, error) {
	own, total, at := in[self].Wires, 0, 0
	for r, wb := range in {
		if r == self {
			at = total
		}
		total += len(wb.Wires)
	}
	wires := own[:0]
	if own == nil || cap(own) < total {
		wires = make([]metrics.Wire, 0, total)
	}
	wires = wires[:total]
	copy(wires[at:], own)
	k := 0
	for r, wb := range in {
		if r == self {
			k += len(own)
			continue
		}
		for i := range wb.Wires {
			w := &wb.Wires[i]
			if w.Channel < 0 || int(w.Channel) >= numChannels {
				return nil, badIndex(tag, r, i, "channel", w.Channel, 0, numChannels-1)
			}
			if min(w.AX, w.BX) < 0 {
				return nil, cmp.Or(badIndex(tag, r, i, "ax", w.AX, 0, circuit.MaxCoord), badIndex(tag, r, i, "bx", w.BX, 0, circuit.MaxCoord))
			}
			if w.Switchable {
				if w.ARow < 0 || int(w.ARow) >= numChannels-1 {
					return nil, badIndex(tag, r, i, "row", w.ARow, 0, numChannels-2)
				}
				if w.BRow != w.ARow {
					return nil, badIndex(tag, r, i, "brow", w.BRow, int(w.ARow), int(w.ARow))
				}
				if w.Channel != w.ARow && w.Channel != w.ARow+1 {
					return nil, badIndex(tag, r, i, "channel", w.Channel, int(w.ARow), int(w.ARow)+1)
				}
			}
			wires[k] = *w
			k++
		}
	}
	return wires, nil
}

// blockPin reports whether p is one of step 4's nodes from a rank's block:
// a real pin there, at its post-insertion position (fake pins stay home).
func blockPin(p *circuit.Pin, block partition.RowBlock) bool {
	return !p.Fake && block.Contains(int(p.Row))
}

// ownPinNodes builds this rank's step-4 contributions: the block pins of
// every net another rank owns, batched per owner and sized exactly by a
// counting pass. The batch to itself stays empty (see indexNodes).
func ownPinNodes(sub *circuit.Circuit, block partition.RowBlock, owner []int, self, size int) []NodeBatch {
	counts := make([]int, size)
	for n := range sub.Nets {
		if k := owner[n]; k != self {
			for _, pid := range sub.NetPins(n) {
				if blockPin(&sub.Pins[pid], block) {
					counts[k]++
				}
			}
		}
	}
	out := sizedBatches[NodeBatch](counts)
	for n := range sub.Nets {
		if k := owner[n]; k != self {
			for _, pid := range sub.NetPins(n) {
				if p := &sub.Pins[pid]; blockPin(p, block) {
					out[k] = append(out[k], NodeMsg{Net: int32(n), X: p.X, Row: p.Row, Side: p.Side})
				}
			}
		}
	}
	return out
}

// indexNodes gives route.ConnectNets step 4's nodes by net where they lie,
// the batches of pinIn (tagNetNodes) then ftIn (tagFtNodes) indexed in place
// by net in arrival order (count pass, prefix sum, fill pass); a net rank me
// owns adds its block pins, read off sub, where its pin batch to itself
// would be. The count pass is the trust boundary: a net, row, x or side
// outside the circuit is an error naming rank and tag.
func indexNodes(sub *circuit.Circuit, block partition.RowBlock, owner []int, me int, pinIn, ftIn []NodeBatch) (
	degree func(n int) int, of func(n int, buf []route.Node) []route.Node, err error) {

	batches, start := []NodeBatch(nil), []int32{0} // start[i]: batch i's first position
	// off[n+2] counts net n's nodes, and the prefix sum turns off[n+1] into
	// net n's first slot: the fill's cursor, which it leaves at net n+1's.
	off := make([]int32, len(sub.Nets)+2)
	for k, set := range [][]NodeBatch{pinIn, ftIn} {
		tag := [...]int{tagNetNodes, tagFtNodes}[k]
		for r, batch := range set {
			for i, nm := range batch {
				if int(nm.Net) >= len(sub.Nets) || int(nm.Row) >= len(sub.Rows) || min(nm.Net, nm.Row, nm.X) < 0 || nm.Side > circuit.Both {
					return nil, nil, cmp.Or(badIndex(tag, r, i, "net", nm.Net, 0, len(sub.Nets)-1), badIndex(tag, r, i, "row", nm.Row, 0, len(sub.Rows)-1),
						badIndex(tag, r, i, "x", nm.X, 0, circuit.MaxCoord), badIndex(tag, r, i, "side", int(nm.Side), 0, int(circuit.Both)))
				}
				off[nm.Net+2]++
			}
			batches, start = append(batches, batch), append(start, start[len(start)-1]+int32(len(batch)))
		}
	}
	for n := 2; n < len(off); n++ {
		off[n] += off[n-1]
	}
	at := make([]int32, off[len(off)-1])
	for i, batch := range batches {
		for j, nm := range batch {
			at[off[nm.Net+1]] = start[i] + int32(j)
			off[nm.Net+1]++
		}
	}
	degree = func(n int) int {
		k := int(off[n+1] - off[n])
		if owner[n] == me {
			for _, pid := range sub.NetPins(n) {
				if blockPin(&sub.Pins[pid], block) {
					k++
				}
			}
		}
		return k
	}
	of = func(n int, buf []route.Node) []route.Node {
		ks, b := at[off[n]:off[n+1]], 0
		mine := -1 // where own pins go: ahead of all that came from rank me+1 on
		if owner[n] == me {
			for mine = 0; mine < len(ks) && ks[mine] < start[me+1]; mine++ {
			}
		}
		buf = buf[:0]
		for i := 0; i <= len(ks); i++ {
			if i == mine {
				for _, pid := range sub.NetPins(n) {
					if p := &sub.Pins[pid]; blockPin(p, block) {
						buf = append(buf, route.Node{X: p.X, Row: p.Row, Side: p.Side})
					}
				}
			}
			if i < len(ks) {
				for ks[i] >= start[b+1] {
					b++
				}
				nm := &batches[b][ks[i]-start[b]]
				buf = append(buf, route.Node{X: nm.X, Row: nm.Row, Side: nm.Side})
			}
		}
		return buf
	}
	return degree, of, nil
}

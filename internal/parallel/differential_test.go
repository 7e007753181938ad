package parallel

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/geom"
	"parroute/internal/grid"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/partition"
	"parroute/internal/pipeline"
	"parroute/internal/rng"
	"parroute/internal/route"
	"parroute/internal/steiner"
)

// The reference implementations below are the drivers' pre-arena forms,
// kept verbatim as the oracle the production paths are held to.

// refCollectNodes is the map-based collectNodes: per-net append chains in
// arrival order.
func refCollectNodes(in []NodeBatch) map[int][]route.Node {
	byNet := make(map[int][]route.Node)
	for _, batch := range in {
		for _, nm := range batch {
			byNet[int(nm.Net)] = append(byNet[int(nm.Net)], route.Node{X: nm.X, Row: nm.Row, Side: nm.Side})
		}
	}
	return byNet
}

// refPinNodes is the all-batches ownPinNodes: every net's real pins in the
// block, the rank's own nets' included, batched per net owner.
func refPinNodes(sub *circuit.Circuit, block partition.RowBlock, owner []int, size int) []NodeBatch {
	counts := make([]int, size)
	for n := range sub.Nets {
		for _, pid := range sub.NetPins(n) {
			if p := &sub.Pins[pid]; !p.Fake && block.Contains(int(p.Row)) {
				counts[owner[n]]++
			}
		}
	}
	out := sizedBatches[NodeBatch](counts)
	for n := range sub.Nets {
		dest := owner[n]
		for _, pid := range sub.NetPins(n) {
			if p := &sub.Pins[pid]; !p.Fake && block.Contains(int(p.Row)) {
				out[dest] = append(out[dest], NodeMsg{Net: int32(n), X: p.X, Row: p.Row, Side: p.Side})
			}
		}
	}
	return out
}

// refRedistribute is hybrid's two-copy redistribute: every wire, the kept
// ones included, is batched per destination, and the batches are
// concatenated in rank order.
func (r *rank) refRedistribute(wires []metrics.Wire) ([]metrics.Wire, error) {
	numRows := len(r.base.Rows)
	destOf := func(w *metrics.Wire) int {
		if w.Switchable {
			return partition.BlockOf(r.blocks, int(w.Row()))
		}
		return partition.BlockOf(r.blocks, geom.Min(int(w.Channel), numRows-1))
	}
	out := make([]WireBatch, r.comm.Size())
	for i := range wires {
		dest := destOf(&wires[i])
		out[dest].Wires = append(out[dest].Wires, wires[i])
	}
	in, err := mp.Alltoall(r.comm, tagWiresRedist, out)
	if err != nil {
		return nil, err
	}
	return refConcatWires(in, tagWiresRedist, r.sub.NumChannels())
}

// refConcatWires is the two-pass concatWires: every batch is checked, then
// all of them are copied.
func refConcatWires(in []WireBatch, tag, numChannels int) ([]metrics.Wire, error) {
	total := 0
	for r, wb := range in {
		for i := range wb.Wires {
			w := &wb.Wires[i]
			if w.Channel < 0 || int(w.Channel) >= numChannels {
				return nil, badIndex(tag, r, i, "channel", w.Channel, 0, numChannels-1)
			}
			if err := cmp.Or(badIndex(tag, r, i, "ax", w.AX, 0, circuit.MaxCoord), badIndex(tag, r, i, "bx", w.BX, 0, circuit.MaxCoord)); err != nil {
				return nil, err
			}
			if !w.Switchable {
				continue
			}
			if err := cmp.Or(badIndex(tag, r, i, "row", w.Row(), 0, numChannels-2),
				badIndex(tag, r, i, "brow", w.BRow, int(w.Row()), int(w.Row())),
				badIndex(tag, r, i, "channel", w.Channel, int(w.Row()), int(w.Row())+1)); err != nil {
				return nil, err
			}
		}
		total += len(wb.Wires)
	}
	wires := slices.Grow([]metrics.Wire(nil), total)
	for _, wb := range in {
		wires = append(wires, wb.Wires...)
	}
	return wires, nil
}

// refConnectOwnedNets is the map-based step 4: sorted net IDs, fresh
// scratch per net, append-grown wires.
func refConnectOwnedNets(byNet map[int][]route.Node, occ *route.Occupancy) (wires []metrics.Wire, forced int) {
	nets := make([]int, 0, len(byNet))
	for n := range byNet {
		nets = append(nets, n)
	}
	sort.Ints(nets)
	for _, n := range nets {
		if len(byNet[n]) < 2 {
			continue
		}
		var cn route.Connector
		ws := make([]metrics.Wire, len(byNet[n])-1)
		forced += cn.Tree(n, byNet[n], ws)
		_ = occ.PlaceWires(context.Background(), 1, ws) // the background context never ends
		wires = append(wires, ws...)
	}
	return wires, forced
}

// refInsertBlockFeedthroughs is the eager net-wise insertion loop: every
// inserted cell re-syncs its row's pins.
func refInsertBlockFeedthroughs(sub *circuit.Circuit, g *grid.Grid, block partition.RowBlock) (ftByRow [][]int, inserted int) {
	ftByRow = make([][]int, len(sub.Rows))
	for row := block.Lo; row <= block.Hi; row++ {
		for col := 0; col < g.Cols; col++ {
			for i := 0; i < g.FtDemand(row, col); i++ {
				pin := sub.InsertFeedthrough(row, g.ColCenter(col), circuit.NoNet)
				ftByRow[row] = append(ftByRow[row], pin)
				inserted++
			}
		}
	}
	return ftByRow, inserted
}

// refBuildSubCircuit is the full-clone sub-circuit builder the drivers
// used: every cell and pin of the design under its base ID, nets filtered
// to the block, foreign pins detached. gen lists each row's cells and each
// net's pins in ID order, so construction in ID order rebuilds them.
func refBuildSubCircuit(base *circuit.Circuit, block partition.RowBlock, fakes []FakePinSpec) *circuit.Circuit {
	sub := &circuit.Circuit{Name: base.Name, CellHeight: base.CellHeight, FeedWidth: base.FeedWidth}
	for range base.Rows {
		sub.AddRow()
	}
	for range base.Nets {
		sub.AddNet("")
	}
	for id, cell := range base.Cells {
		sub.AddCell(int(cell.Row), int(cell.Width))
		sub.Cells[id].X = cell.X
	}
	pins := slices.Clone(base.Pins)
	for pid := range pins {
		if !block.Contains(int(pins[pid].Row)) {
			pins[pid].Net = circuit.NoNet
		}
	}
	sub.AddPins(pins)
	for _, spec := range fakes {
		sub.AddFakePin(int(spec.Net), int(spec.X), int(spec.Row), spec.Side)
	}
	return sub
}

// randomCircuit draws a gen circuit whose shape (rows, cells, nets, a giant
// net every third draw) varies with i — circuits nobody hand-picked.
func randomCircuit(t *testing.T, i int) *circuit.Circuit {
	t.Helper()
	r := rng.New(uint64(1000 + i))
	rows := 4 + r.Intn(9)
	cells := rows * (12 + r.Intn(30))
	nets := cells/2 + r.Intn(cells)
	cfg := gen.Config{
		Name: fmt.Sprintf("rand%d", i), Rows: rows, Cells: cells,
		Nets: nets, TargetPins: nets * 7 / 2, Seed: uint64(i + 1),
	}
	if i%3 == 0 {
		cfg.GiantNets = []int{steiner.LargeNetThreshold + 40}
		cfg.TargetPins += cfg.GiantNets[0]
	}
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stepFourArrivals synthesizes what rank me receives in step 4: the pin
// nodes of its nets from every row owner's circuit subs[r] — as the
// reference's full batches (pinIn), and as connectWhole has them, the
// rank's batch to itself empty (selfIn), its own pins left in subs[me] —
// and a second round of feedthrough nodes — one side-Both node per row
// strictly inside each net's row span, from that row's owner — as in the
// net-wise shape. The feedthrough round also carries a lone node of a net me
// does not own, so the index sees nets with zero, one and many nodes.
func stepFourArrivals(c *circuit.Circuit, subs []*circuit.Circuit, blocks []partition.RowBlock, owner []int, me int) (pinIn, selfIn, ftIn []NodeBatch) {
	p := len(blocks)
	pinIn, selfIn, ftIn = make([]NodeBatch, p), make([]NodeBatch, p), make([]NodeBatch, p)
	stray := false
	for n := range c.Nets {
		pins := c.NetPins(n)
		if len(pins) == 0 {
			continue
		}
		first := &c.Pins[pins[0]]
		if owner[n] != me {
			if !stray {
				k := partition.BlockOf(blocks, int(first.Row))
				ftIn[k] = append(ftIn[k], NodeMsg{Net: int32(n), X: first.X, Row: first.Row, Side: circuit.Both})
				stray = true
			}
			continue
		}
		lo, hi := int(first.Row), int(first.Row)
		for _, pid := range pins {
			lo, hi = min(lo, int(c.Pins[pid].Row)), max(hi, int(c.Pins[pid].Row))
		}
		for row := lo + 1; row < hi; row++ {
			k := partition.BlockOf(blocks, row)
			ftIn[k] = append(ftIn[k], NodeMsg{Net: int32(n), X: first.X + int32(row), Row: int32(row), Side: circuit.Both})
		}
	}
	for r := range blocks {
		pinIn[r] = refPinNodes(subs[r], blocks[r], owner, p)[me]
		selfIn[r] = ownPinNodes(subs[r], blocks[r], owner, r, p)[me]
	}
	return pinIn, selfIn, ftIn
}

// TestArenaStepFourMatchesMapForm: step 4's nodes read where they lie — the
// received batches indexed by net, a rank's own pins read off its circuit —
// give every net the node list of the map form, refCollectNodes over full
// batches, and the slot-addressed route.ConnectNets (at more than one worker
// count) produces the map form's wires in its order, the same forced count
// and the same final occupancy. Both arrival shapes run on gen-random
// circuits at P in {2,3,4,8} and on the six presets at P=2, every rank:
// hybrid's, one pin set from block circuits with their fake pins, and
// net-wise's, a pin set from the whole circuit and a feedthrough set.
func TestArenaStepFourMatchesMapForm(t *testing.T) {
	type circuitCase struct {
		c     *circuit.Circuit
		procs []int
	}
	var cases []circuitCase
	for i := 0; i < 6; i++ {
		cases = append(cases, circuitCase{randomCircuit(t, i), []int{2, 3, 4, 8}})
	}
	for _, name := range gen.CircuitNames() {
		c, err := gen.Benchmark(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, circuitCase{c, []int{2}})
	}
	ran := map[int]int{}
	for _, cc := range cases {
		c := cc.c
		for _, p := range cc.procs {
			if len(c.Rows) < p {
				continue
			}
			ran[p]++
			blocks, err := partition.RowBlocks(c, p)
			if err != nil {
				t.Fatal(err)
			}
			owner, err := partition.Nets(c, blocks, p, partition.Config{Method: partition.PinWeight})
			if err != nil {
				t.Fatal(err)
			}
			specs := computeCrossings(c, blocks, make([]int, len(c.Nets)), 0)
			blockSubs, wholeSubs := make([]*circuit.Circuit, p), make([]*circuit.Circuit, p)
			for k := range blocks {
				blockSubs[k], wholeSubs[k] = buildBlockCircuit(c, blocks[k], specs[k]), c
			}
			// At P=8 a rank can own no multi-pin net: the ranks together must wire.
			wired := 0
			for me := 0; me < p; me++ {
				for _, netwise := range []bool{false, true} {
					name := fmt.Sprintf("%s/p%d/rank%d/netwise=%v", c.Name, p, me, netwise)
					subs := blockSubs
					if netwise {
						subs = wholeSubs
					}
					pinIn, selfIn, ftIn := stepFourArrivals(c, subs, blocks, owner, me)
					if len(selfIn[me]) != 0 {
						t.Fatalf("%s: the rank's pin batch to itself holds %d nodes", name, len(selfIn[me]))
					}
					want, ft := refCollectNodes(pinIn), []NodeBatch(nil)
					if netwise {
						ft = ftIn
						for n, nodes := range refCollectNodes(ftIn) {
							want[n] = append(want[n], nodes...)
						}
					}
					degree, of, err := indexNodes(subs[me], blocks[me], owner, me, selfIn, ft)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					singles := 0
					for n := range c.Nets {
						got := of(n, make([]route.Node, degree(n)))
						if !slices.Equal(got, want[n]) || len(got) != degree(n) {
							t.Fatalf("%s: net %d has %d nodes (degree %d), map form %d, or their order differs", name, n, len(got), degree(n), len(want[n]))
						}
						if len(got) == 1 {
							singles++
						}
					}
					if netwise && singles == 0 {
						t.Fatalf("%s: no one-node net in the arrivals", name)
					}
					newOcc := func() *route.Occupancy {
						return route.NewOccupancy(c.NumChannels(), c.CoreWidth()*2, 16)
					}
					gotOcc, wantOcc := newOcc(), newOcc()
					gotWires, gotForced, err := route.ConnectNets(context.Background(), 1+me, len(c.Nets), degree, of, gotOcc)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wantWires, wantForced := refConnectOwnedNets(want, wantOcc)
					wired += len(wantWires)
					if !slices.Equal(gotWires, wantWires) {
						t.Fatalf("%s: wires differ from the map form (%d vs %d)", name, len(gotWires), len(wantWires))
					}
					if gotForced != wantForced {
						t.Fatalf("%s: forced %d, map form %d", name, gotForced, wantForced)
					}
					if !slices.Equal(denseOcc(gotOcc), denseOcc(wantOcc)) {
						t.Fatalf("%s: final occupancy differs from the map form", name)
					}
				}
			}
			if wired == 0 {
				t.Fatalf("%s/p%d: reference produced no wires", c.Name, p)
			}
		}
	}
	if ran[2] == 0 || ran[3] == 0 || ran[4] == 0 || ran[8] == 0 {
		t.Fatalf("circuits per P: %v — some P never ran", ran)
	}
}

// TestDeferredBlockInsertionMatchesEager: net-wise feedthrough insertion
// restricted to one row block, on a sub-circuit that carries fake pins
// (which every insertion to their left shifts), leaves the same cells,
// rows, pin positions and per-row pin lists whether the cells go in one at
// a time or in one walk per row, at more than one worker count.
func TestDeferredBlockInsertionMatchesEager(t *testing.T) {
	for i := 0; i < 6; i++ {
		c := randomCircuit(t, i)
		for _, p := range []int{2, 3} {
			blocks, err := partition.RowBlocks(c, p)
			if err != nil {
				t.Fatal(err)
			}
			owner := make([]int, len(c.Nets)) // rank 0 computes every crossing
			specs := computeCrossings(c, blocks, owner, 0)
			// Demand: every segment's initial vertical run.
			g := grid.New(len(c.Rows), c.CoreWidth(), 16)
			var sb steiner.Builder
			for n := range c.Nets {
				for _, seg := range sb.AppendNet(nil, c, n) {
					ps := route.Place(c, seg)
					route.ApplyRuns(g, ps.CurrentRuns(), 1)
				}
			}
			for k, block := range blocks {
				if len(specs[k]) == 0 {
					t.Fatalf("%s/p%d: block %d has no fake pins", c.Name, p, k)
				}
				eager := refBuildSubCircuit(c, block, specs[k])
				deferred := refBuildSubCircuit(c, block, specs[k])
				wantFts, wantN := refInsertBlockFeedthroughs(eager, g, block)
				name := fmt.Sprintf("%s/p%d/block%d", c.Name, p, k)
				gotFts, gotN, err := route.InsertGridFeedthroughs(deferred, g, block.Lo, block.Hi, 1+k)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if wantN == 0 {
					t.Fatalf("%s: no demand in the block", name)
				}
				if gotN != wantN {
					t.Fatalf("%s: inserted %d, eager %d", name, gotN, wantN)
				}
				for row := range wantFts {
					if !slices.Equal(gotFts[row], wantFts[row]) {
						t.Fatalf("%s: row %d feedthrough pins %v, eager %v", name, row, gotFts[row], wantFts[row])
					}
				}
				if !reflect.DeepEqual(deferred.Cells, eager.Cells) {
					t.Fatalf("%s: cells differ from eager insertion", name)
				}
				for r := range eager.Rows {
					if !slices.Equal(deferred.RowCells(r), eager.RowCells(r)) {
						t.Fatalf("%s: row %d's order differs from eager insertion", name, r)
					}
				}
				if !slices.Equal(deferred.Pins, eager.Pins) {
					t.Fatalf("%s: pins differ from eager insertion", name)
				}
				if err := deferred.Validate(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestCrossingSortMatchesStableSort: slices.SortFunc over compareCrossings
// yields the byte sequence the stable reflective sort did — ties are
// identical values, so stability cannot show.
func TestCrossingSortMatchesStableSort(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 50; trial++ {
		batch := make(CrossingBatch, 1+r.Intn(200))
		for i := range batch {
			batch[i] = CrossingMsg{Net: int32(r.Intn(6)), X: int32(r.Intn(8)), Row: 3}
		}
		want := slices.Clone(batch)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].X != want[j].X {
				return want[i].X < want[j].X
			}
			return want[i].Net < want[j].Net
		})
		slices.SortFunc(batch, compareCrossings)
		if !slices.Equal(batch, want) {
			t.Fatalf("trial %d: order differs from the stable sort", trial)
		}
	}
}

// blockFakeVariants returns the fake-pin sets a block is built with: none,
// the block's real crossings (both boundaries for an interior block), and
// those plus two more on one net.
func blockFakeVariants(c *circuit.Circuit, block partition.RowBlock, crossings []FakePinSpec) [][]FakePinSpec {
	twice := slices.Clone(crossings)
	for n := range c.Nets {
		if len(c.NetPins(n)) > 0 {
			twice = append(twice,
				FakePinSpec{Net: int32(n), X: 3, Row: int32(block.Lo), Side: circuit.Bottom},
				FakePinSpec{Net: int32(n), X: 9, Row: int32(block.Hi), Side: circuit.Top})
			break
		}
	}
	return [][]FakePinSpec{nil, crossings, twice}
}

// forEachBlockBuild calls fn for gen-random circuits × P ∈ {2, 3, 8} ×
// every block × every fake-pin variant, and checks afterwards that nothing
// fn ran wrote to the base circuit.
func forEachBlockBuild(t *testing.T, fn func(name string, c *circuit.Circuit, block partition.RowBlock, fakes []FakePinSpec)) {
	t.Helper()
	ran := map[int]int{}
	for i := 0; i < 6; i++ {
		c := randomCircuit(t, i)
		pristine := c.Clone()
		for _, p := range []int{2, 3, 8} {
			if len(c.Rows) < p {
				continue
			}
			ran[p]++
			blocks, err := partition.RowBlocks(c, p)
			if err != nil {
				t.Fatal(err)
			}
			specs := computeCrossings(c, blocks, make([]int, len(c.Nets)), 0) // rank 0 owns every net
			for k, block := range blocks {
				for v, fakes := range blockFakeVariants(c, block, specs[k]) {
					fn(fmt.Sprintf("%s/p%d/block%d/fakes%d", c.Name, p, k, v), c, block, fakes)
				}
			}
		}
		// Clone to clone: Clone turns nil lists into empty ones.
		if !reflect.DeepEqual(c.Clone(), pristine) {
			t.Fatalf("%s: building sub-circuits modified the base circuit", c.Name)
		}
	}
	if ran[2] == 0 || ran[3] == 0 || ran[8] == 0 {
		t.Fatalf("circuits per P: %v — some P never ran", ran)
	}
}

// TestBlockCircuitMatchesFullClone: the block-sized sub-circuit is the
// full-clone one with the foreign rows' cells and pins left out and IDs
// re-issued — same cells per row, same pins per cell, same per-net pin
// order, every kept pin equal through the ID map — and a fake pin or a
// feedthrough added afterwards never writes into another list.
func TestBlockCircuitMatchesFullClone(t *testing.T) {
	forEachBlockBuild(t, func(name string, c *circuit.Circuit, block partition.RowBlock, fakes []FakePinSpec) {
		full := refBuildSubCircuit(c, block, fakes)
		sub := buildBlockCircuit(c, block, fakes)
		if err := sub.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sub.Rows) != len(full.Rows) || len(sub.Nets) != len(full.Nets) {
			t.Fatalf("%s: %d rows %d nets, full clone %d %d", name, len(sub.Rows), len(sub.Nets), len(full.Rows), len(full.Nets))
		}
		// The ID map, from the cells: row by row, cell by cell, pin by pin.
		toSub := map[int]int{}
		cells, pins := 0, 0
		for r := range full.Rows {
			if !block.Contains(r) {
				if len(sub.RowCells(r)) != 0 {
					t.Fatalf("%s: foreign row %d holds %d cells", name, r, len(sub.RowCells(r)))
				}
				continue
			}
			if len(sub.RowCells(r)) != len(full.RowCells(r)) {
				t.Fatalf("%s: row %d has %d cells, full clone %d", name, r, len(sub.RowCells(r)), len(full.RowCells(r)))
			}
			for i, fid := range full.RowCells(r) {
				sid := sub.RowCells(r)[i]
				fp, sp := full.CellPins(int(fid)), sub.CellPins(int(sid))
				if sub.Cells[sid] != full.Cells[fid] || len(sp) != len(fp) {
					t.Fatalf("%s: row %d cell %d is %+v with %d pins, full clone %+v with %d", name, r, i, sub.Cells[sid], len(sp), full.Cells[fid], len(fp))
				}
				for j, pid := range fp {
					toSub[int(pid)] = int(sp[j])
				}
				cells++
				pins += len(fp)
			}
		}
		if len(sub.Cells) != cells || len(sub.Pins) != pins+len(fakes) {
			t.Fatalf("%s: %d cells %d pins, block holds %d cells %d pins + %d fakes", name, len(sub.Cells), len(sub.Pins), cells, pins, len(fakes))
		}
		// Kept pins keep the base's relative order: the block's pins, in base
		// ID order, are the sub-circuit's first pins.
		next := 0
		for fid := range full.Pins[:len(full.Pins)-len(fakes)] {
			if sid, ok := toSub[fid]; ok {
				if sid != next {
					t.Fatalf("%s: base pin %d is pin %d, want %d: kept pins out of the base's order", name, fid, sid, next)
				}
				next++
			}
		}
		// Fake pins follow the real ones in both tables, in spec order.
		for i := range fakes {
			toSub[len(full.Pins)-len(fakes)+i] = len(sub.Pins) - len(fakes) + i
		}
		for fid, sid := range toSub {
			fp, sp := full.Pins[fid], sub.Pins[sid]
			if sp.X != fp.X || sp.Row != fp.Row || sp.Side != fp.Side || sp.Offset != fp.Offset || sp.Net != fp.Net || sp.Fake != fp.Fake {
				t.Fatalf("%s: pin %d is %+v, full clone's pin %d %+v", name, sid, sp, fid, fp)
			}
		}
		for n := range full.Nets {
			want := make([]int32, len(full.NetPins(n)))
			for i, fid := range full.NetPins(n) {
				want[i] = int32(toSub[int(fid)])
			}
			if !slices.Equal(sub.NetPins(n), want) {
				t.Fatalf("%s: net %d pins %v, full clone's through the ID map %v", name, n, sub.NetPins(n), want)
			}
		}
		// Every list is capped at its own end, so growing one copies out.
		for r := range sub.Rows {
			if l := sub.RowCells(r); cap(l) != len(l) {
				t.Fatalf("%s: row %d cell list has cap %d over len %d", name, r, cap(l), len(l))
			}
		}
		for i := range sub.Cells {
			if l := sub.CellPins(i); cap(l) != len(l) {
				t.Fatalf("%s: cell %d pin list has cap %d over len %d", name, i, cap(l), len(l))
			}
		}
		for n := range sub.Nets {
			if l := sub.NetPins(n); cap(l) != len(l) {
				t.Fatalf("%s: net %d pin list has cap %d over len %d", name, n, cap(l), len(l))
			}
		}
		before := buildBlockCircuit(c, block, fakes)
		grown := -1
		for n := range sub.Nets {
			if len(sub.NetPins(n)) > 0 {
				grown = n
				break
			}
		}
		sub.AddFakePin(grown, 5, block.Lo, circuit.Bottom)
		sub.InsertFeedthrough(block.Hi, 40, grown)
		for n := range sub.Nets {
			if n != grown && !slices.Equal(sub.NetPins(n), before.NetPins(n)) {
				t.Fatalf("%s: growing net %d rewrote net %d", name, grown, n)
			}
		}
		for r := range sub.Rows {
			if r != block.Hi && !slices.Equal(sub.RowCells(r), before.RowCells(r)) {
				t.Fatalf("%s: inserting into row %d rewrote row %d", name, block.Hi, r)
			}
		}
		for i := range before.Cells {
			if !slices.Equal(sub.CellPins(i), before.CellPins(i)) {
				t.Fatalf("%s: growing the tables rewrote cell %d's pins", name, i)
			}
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("%s: after growth: %v", name, err)
		}
	})
}

// TestBlockCircuitRoutesLikeFullClone: the serial pipeline through step 4,
// run the way a row-wise rank runs it, produces the same segments, counts
// and wires on the block-sized sub-circuit as on the full clone — nothing
// in the router depends on the cell and pin IDs the builder re-issues.
func TestBlockCircuitRoutesLikeFullClone(t *testing.T) {
	forEachBlockBuild(t, func(name string, c *circuit.Circuit, block partition.RowBlock, fakes []FakePinSpec) {
		run := func(sub *circuit.Circuit) *route.Router {
			rt := route.NewRouter(sub, route.Options{Seed: 5, GridWidth: c.CoreWidth()})
			if err := rt.BuildTrees(context.Background()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := rt.CoarseRoute(context.Background()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := rt.InsertFeedthroughs(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := rt.AssignFeedthroughs(context.Background()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := rt.ConnectNets(context.Background()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return rt
		}
		want, got := run(refBuildSubCircuit(c, block, fakes)), run(buildBlockCircuit(c, block, fakes))
		if len(got.Segs) != len(want.Segs) || got.CoarseFlips != want.CoarseFlips ||
			got.InsertedFts != want.InsertedFts || got.ForcedEdges != want.ForcedEdges {
			t.Fatalf("%s: segs/flips/fts/forced %d/%d/%d/%d, full clone %d/%d/%d/%d", name,
				len(got.Segs), got.CoarseFlips, got.InsertedFts, got.ForcedEdges,
				len(want.Segs), want.CoarseFlips, want.InsertedFts, want.ForcedEdges)
		}
		if !slices.Equal(got.Wires, want.Wires) {
			t.Fatalf("%s: wires differ from the full clone's", name)
		}
		for r := block.Lo; r <= block.Hi; r++ {
			if got.C.RowWidth(r) != want.C.RowWidth(r) {
				t.Fatalf("%s: row %d width %d, full clone %d", name, r, got.C.RowWidth(r), want.C.RowWidth(r))
			}
		}
	})
}

// TestRedistributeMatchesTwoCopy: hybrid's redistribute — the kept wires
// compacted in place, only the others batched — leaves every rank the wires
// the two-copy form leaves it, element for element, on gen-random circuits
// at P in {2, 3, 4}.
func TestRedistributeMatchesTwoCopy(t *testing.T) {
	moved := 0
	for i := 0; i < 6; i++ {
		c := randomCircuit(t, i)
		for _, p := range []int{2, 3, 4} {
			blocks, err := partition.RowBlocks(c, p)
			if err != nil {
				t.Fatal(err)
			}
			owner, err := partition.Nets(c, blocks, p, partition.Config{Method: partition.PinWeight})
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Algo: Hybrid, Procs: p, Mode: mp.Inproc, Route: route.Options{Seed: 3}}
			if err := opt.normalize(); err != nil {
				t.Fatal(err)
			}
			changed := make([]bool, p) // each rank writes its own slot
			ctx, cancel := context.WithTimeout(context.Background(), cancelWatchdog)
			_, err = mp.Config{Procs: p, Mode: mp.Inproc}.RunContext(ctx, func(comm mp.Comm) error {
				return runRank(ctx, comm, c, blocks, owner, opt, &runOutput{}, func(r *rank) []pipeline.Stage {
					stages := hybridStages(r)
					at := slices.IndexFunc(stages, func(st pipeline.Stage) bool { return st.Name() == "stitch" })
					return append(stages[:at], stage("redistribute", func(*pipeline.Session) error {
						before := slices.Clone(r.wires)
						want, err := r.refRedistribute(before)
						if err != nil {
							return err
						}
						if err := r.redistribute(); err != nil {
							return err
						}
						if !slices.Equal(r.wires, want) {
							return fmt.Errorf("rank %d holds %d wires, the two-copy form %d, or their order differs", r.comm.Rank(), len(r.wires), len(want))
						}
						changed[r.comm.Rank()] = !slices.Equal(r.wires, before)
						return nil
					}))
				})
			})
			cancel()
			if err != nil {
				t.Fatalf("%s/p%d: %v", c.Name, p, err)
			}
			for _, ch := range changed {
				if ch {
					moved++
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("no rank's wires moved: the runs never redistributed")
	}
}

// TestConcatWiresMatchesTwoPass: assembleWires returns the wires the
// copying two-pass form does, on routed gen circuits cut into 1–4 rank
// batches, empty batches included, with the own batch first, in the middle
// and last, and with room in its array for them all or too little. With
// room the result is the own array; without, a fresh, exactly sized one;
// either way no peer batch is written. When one wire of the second batch has
// a bad channel, span or row, both forms fail with the same error, and it
// names rank 1, the tag and the wire's index.
func TestConcatWiresMatchesTwoPass(t *testing.T) {
	for i := 0; i < 4; i++ {
		c := randomCircuit(t, i)
		res, err := route.Route(context.Background(), c, route.Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		nc := c.NumChannels()
		for p := 1; p <= 4; p++ {
			in := make([]WireBatch, p)
			for r := range in {
				in[r] = WireBatch{Wires: slices.Clone(res.Wires[len(res.Wires)*r/p : len(res.Wires)*(r+1)/p])}
			}
			if p == 4 {
				in[0] = WireBatch{Wires: []metrics.Wire{}} // a rank with no wires
			}
			for self := range p {
				for _, room := range []bool{false, true} {
					name := fmt.Sprintf("%s/p%d/self%d/room=%v", c.Name, p, self, room)
					batches := slices.Clone(in)
					own := slices.Clip(batches[self].Wires)
					if room {
						own = append(make([]metrics.Wire, 0, len(res.Wires)), own...)
					}
					batches[self].Wires = own
					want, werr := refConcatWires(batches, tagWires, nc)
					got, err := assembleWires(batches, self, tagWires, nc)
					if err != nil || werr != nil {
						t.Fatalf("%s: %v / %v", name, err, werr)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: %d wires, two-pass form %d, or their order differs", name, len(got), len(want))
					}
					fits := cap(own) >= len(want) // no peer wires: exact is room
					inPlace := len(got) > 0 && cap(own) > 0 && &got[:1][0] == &own[:1][0]
					if fits != inPlace || !fits && cap(got) != len(got) {
						t.Fatalf("%s: result in the own array %v (cap %d for %d wires)", name, inPlace, cap(got), len(got))
					}
					for r := range in {
						if r != self && !slices.Equal(batches[r].Wires, in[r].Wires) {
							t.Fatalf("%s: rank %d's batch was written", name, r)
						}
					}
				}
			}
			if p < 2 || len(in[1].Wires) == 0 {
				continue
			}
			second := in[1].Wires
			at := len(second) / 2
			for _, bad := range []struct {
				field string
				edit  func(w *metrics.Wire)
			}{
				{"channel", func(w *metrics.Wire) { w.Channel = int32(nc) }},
				{"channel", func(w *metrics.Wire) { w.Channel = -1 }},
				{"ax", func(w *metrics.Wire) { w.AX, w.BX = -2, 3 }},
				{"bx", func(w *metrics.Wire) { w.AX, w.BX = 0, math.MinInt32 }},
				{"ax", func(w *metrics.Wire) { w.AX, w.BX = -1, -1 }},
				{"row", func(w *metrics.Wire) { w.Switchable, w.ARow, w.BRow = true, int32(nc-1), int32(nc-1) }},
				{"brow", func(w *metrics.Wire) { w.Switchable, w.Channel, w.ARow, w.BRow = true, 0, 0, 1 }},
				{"channel", func(w *metrics.Wire) { w.Switchable, w.ARow, w.BRow, w.Channel = true, 0, 0, 2 }},
			} {
				forged := slices.Clone(in)
				wires := slices.Clone(second)
				bad.edit(&wires[at])
				forged[1] = WireBatch{Wires: wires}
				_, werr := refConcatWires(forged, tagWires, nc)
				_, err := assembleWires(forged, 0, tagWires, nc)
				if err == nil || werr == nil || err.Error() != werr.Error() {
					t.Fatalf("%s/p%d/%s: error %v, two-pass form %v", c.Name, p, bad.field, err, werr)
				}
				msg := fmt.Sprintf("tag %d batch from rank 1: element %d has %s ", tagWires, at, bad.field)
				if !strings.Contains(err.Error(), msg) {
					t.Fatalf("%s/p%d/%s: error %q does not name %q", c.Name, p, bad.field, err, msg)
				}
			}
		}
	}
}

// fuzzWireBatches reads data as 2–4 ranks' WireBatches for assembleWires:
// three header bytes (the rank count, the own rank, and the channel count
// with whether the own array has room for every wire), then six bytes a
// wire — its rank, channel, anchor xs, flags and anchor row, small values
// with -128 and 127 standing for the int32 extremes. Flag bit 0 makes the
// wire switchable, bit 1 puts its second anchor a row above the first. The own batch
// takes only wires the copying form accepts: its wires are the rank's own,
// never received.
func fuzzWireBatches(data []byte) (in []WireBatch, self int, room bool, numChannels int) {
	if len(data) < 3 {
		return nil, 0, false, 0
	}
	p := 2 + int(data[0])%3
	self, room, numChannels = int(data[1])%p, data[2]&1 == 1, 2+int(data[2]>>1)%8
	wide := func(b byte) int32 {
		switch v := int8(b); v {
		case math.MinInt8:
			return math.MinInt32
		case math.MaxInt8:
			return math.MaxInt32
		default:
			return int32(v)
		}
	}
	in = make([]WireBatch, p)
	total := 0
	for rest := data[3:]; len(rest) >= 6; rest = rest[6:] {
		w := metrics.Wire{Channel: wide(rest[1]), AX: wide(rest[2]), BX: wide(rest[3]),
			Switchable: rest[4]&1 == 1, ARow: wide(rest[5]), BRow: wide(rest[5])}
		if rest[4]&2 != 0 {
			w.BRow++
		}
		r := int(rest[0]) % p
		if _, err := refConcatWires([]WireBatch{{Wires: []metrics.Wire{w}}}, tagWires, numChannels); r == self && err != nil {
			continue
		}
		in[r].Wires = append(in[r].Wires, w)
		total++
	}
	if in[self].Wires = slices.Clip(in[self].Wires); room {
		in[self].Wires = append(make([]metrics.Wire, 0, total), in[self].Wires...)
	}
	return in, self, room, numChannels
}

// FuzzWireBatches: whatever batches arrive, assembleWires never panics and
// agrees with the copying form — an accepted result equal to its wires, a
// refused one with its error, which names the tag, the rank, the element and
// the field — and it writes no peer's batch.
func FuzzWireBatches(f *testing.F) {
	f.Add([]byte{1, 1, 9, 0, 2, 0, 5, 0, 0, 1, 3, 1, 4, 1, 2, 2, 0, 3, 6, 0, 0})
	f.Add([]byte{2, 0, 8, 1, 2, 0, 5, 0, 0, 2, 1, 3, 3, 1, 1})
	f.Add([]byte{0, 1, 4, 1, 9, 0, 5, 0, 0})
	f.Add([]byte{0, 0, 5, 1, 0x80, 0, 5, 0, 0})
	f.Add([]byte{0, 0, 5, 1, 1, 0x80, 0x7f, 0, 0, 1, 1, 0, 4, 1, 0x7f})
	pattern := regexp.MustCompile(fmt.Sprintf(`^parallel: tag %d batch from rank \d+: element \d+ has (channel|ax|bx|row|brow) `, tagWires))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, self, room, nc := fuzzWireBatches(data)
		if in == nil {
			return
		}
		peers := make([][]metrics.Wire, len(in))
		for r := range in {
			peers[r] = slices.Clone(in[r].Wires)
		}
		want, werr := refConcatWires(in, tagWires, nc)
		got, err := assembleWires(in, self, tagWires, nc)
		for r := range in {
			if r != self && !slices.Equal(in[r].Wires, peers[r]) {
				t.Fatalf("rank %d's batch was written", r)
			}
		}
		switch {
		case werr != nil:
			if err == nil || err.Error() != werr.Error() || !pattern.MatchString(err.Error()) {
				t.Fatalf("error %v, copying form %v", err, werr)
			}
		case err != nil:
			t.Fatalf("refused what the copying form accepts: %v", err)
		case !slices.Equal(got, want):
			t.Fatalf("%d wires, copying form %d, or their order differs", len(got), len(want))
		case room && len(got) > 0 && &got[:1][0] != &in[self].Wires[:1][0]:
			t.Fatal("assembled outside the own array, which has room")
		}
	})
}

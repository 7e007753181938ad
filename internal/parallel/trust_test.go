package parallel

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/partition"
	"parroute/internal/pipeline"
	"parroute/internal/route"
)

// forgingComm is the forging rank's view of the mesh with one lie in it: the
// first payload it sends on tag is replaced by forge's version. Collectives are
// built on Send, so this reaches the Alltoall rounds too.
type forgingComm struct {
	mp.Comm
	tag   int
	forge func(v any) any
	done  bool
}

func (f *forgingComm) Send(to, tag int, v any) error {
	if tag == f.tag && !f.done {
		v, f.done = f.forge(v), true
	}
	return f.Comm.Send(to, tag, v)
}

// appendTo returns a forgery that appends elem to a copy of the batch.
func appendTo[B ~[]E, E any](elem E) func(any) any {
	return func(v any) any { return append(slices.Clone(v.(B)), elem) }
}

// forgery is one lie a peer can tell: the batch transform, the field the
// error must name, and the subtest's name for it.
type forgery struct {
	name, field string
	forge       func(any) any
}

// TestForgedBatchIndexIsAttributed: every index a rank takes off the mesh
// and uses as a subscript or an int32 pin field — the net, row and x of a
// fake-pin spec, a crossing and a step-4 node, the side of a fake-pin spec
// and a step-4 node, the channel, anchor xs and a switchable one's rows of
// a redistributed or gathered wire, and the counter indices and changes of a
// net-wise grid or occupancy delta — is validated once per received batch,
// and so are the boundary-channel counts a row block adds into its
// occupancy. A peer that
// sends one out-of-range element fails the run with an error naming the
// source rank, the tag and the field, and so does one whose payload on any
// of these tags — or on the summary's — is not of the tag's type; no rank
// panics and none is left behind.
func TestForgedBatchIndexIsAttributed(t *testing.T) {
	c := testCircuit(t)
	const p = 2
	blocks, err := partition.RowBlocks(c, p)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := partition.Nets(c, blocks, p, partition.Config{Method: partition.PinWeight})
	if err != nil {
		t.Fatal(err)
	}
	type worker = func(*rank) []pipeline.Stage
	mistyped := forgery{"not-a-batch", "arrived as int", func(any) any { return 7 }}
	// A row of rank 0's block keeps the net-only and x-only forgeries' row
	// valid everywhere (fake pins and crossings must land inside the block).
	// The fields are int32, so the most negative value is the far end.
	lo := int32(blocks[0].Lo)
	indexed := func(mk func(net, row, x int32) func(any) any) []forgery {
		var out []forgery
		for _, bad := range []struct {
			field       string
			net, row, x int32
		}{
			{"net", int32(len(c.Nets)), lo, 1},
			{"net", -1, lo, 1},
			{"net", math.MinInt32, lo, 1},
			{"row", 0, int32(len(c.Rows)), 1},
			{"row", 0, -1, 1},
			{"x", 0, lo, -1},
			{"x", 0, lo, math.MinInt32},
		} {
			name := fmt.Sprintf("bad-%s/net%d,row%d", bad.field, bad.net, bad.row)
			if bad.field == "x" {
				name = fmt.Sprintf("bad-x/%d", bad.x)
			}
			out = append(out, forgery{name, bad.field, mk(bad.net, bad.row, bad.x)})
		}
		return append(out, mistyped)
	}
	// A side past the ones the receiver routes: Both is a fake pin's too.
	sided := func(mk func(side circuit.Side) func(any) any, sides ...circuit.Side) []forgery {
		var out []forgery
		for _, side := range sides {
			out = append(out, forgery{fmt.Sprintf("bad-side/%d", side), "side", mk(side)})
		}
		return out
	}
	nodes := append(indexed(func(net, row, x int32) func(any) any {
		return appendTo[NodeBatch](NodeMsg{Net: net, X: x, Row: row, Side: circuit.Both})
	}), sided(func(side circuit.Side) func(any) any {
		return appendTo[NodeBatch](NodeMsg{Net: 0, X: 1, Row: lo, Side: side})
	}, 3, 255)...)
	fakePins := append(indexed(func(net, row, x int32) func(any) any {
		return appendTo[FakePinBatch](FakePinSpec{Net: net, X: x, Row: row, Side: circuit.Top})
	}), sided(func(side circuit.Side) func(any) any {
		return appendTo[FakePinBatch](FakePinSpec{Net: 0, X: 1, Row: lo, Side: side})
	}, circuit.Both, 7)...)
	wires := []forgery{mistyped}
	for _, bad := range []struct {
		name, field string
		w           metrics.Wire
	}{
		{"channel-1", "channel", metrics.Wire{Channel: -1, BX: 4}},
		{"channel-past-end", "channel", metrics.Wire{Channel: int32(c.NumChannels()), BX: 4}},
		{"span-negative", "ax", metrics.Wire{AX: -1, BX: 4}},
		{"span-min-int32", "ax", metrics.Wire{AX: math.MinInt32, BX: 4}},
		{"anchor-negative", "ax", metrics.Wire{AX: -1, BX: -1}}, // zero-length: it has no span
		{"bx-negative", "bx", metrics.Wire{AX: 4, BX: -1}},
		{"row-1", "row", metrics.Wire{BX: 4, Switchable: true, ARow: -1, BRow: -1}},
		{"row-past-end", "row", metrics.Wire{BX: 4, Switchable: true, ARow: int32(len(c.Rows)), BRow: int32(len(c.Rows))}},
		{"switchable-off-row", "channel", metrics.Wire{Channel: 2, BX: 4, Switchable: true}},
		{"switchable-rows-differ", "brow", metrics.Wire{Channel: 1, BX: 4, Switchable: true, ARow: 1, BRow: 2}},
	} {
		wires = append(wires, forgery{"bad-" + bad.name, bad.field, func(v any) any {
			wb := v.(WireBatch)
			wb.Wires = append(slices.Clone(wb.Wires), bad.w)
			return wb
		}})
	}
	// Table sizes for the delta forgeries, read off a clean run: the
	// occupancy's depends on the core width after feedthrough insertion.
	tableLen := map[int]int{}
	for _, end := range runNetWiseRanks(t, c, p, 0, 1, func(r *rank, tag int, table deltaTable) error {
		if r.comm.Rank() == 0 {
			tableLen[tag] = table.(interface{ TableLen() int }).TableLen()
		}
		return nil
	}) {
		if end.syncs == 0 {
			t.Fatal("clean net-wise run made no sync")
		}
	}
	edit := func(f func(vs []int32) []int32) func(any) any {
		return func(v any) any { return f(slices.Clone(v.([]int32))) }
	}
	// Rank 1 only has a lower neighbour, rank 0 only an upper one, so the
	// upper-boundary counts are forged by rank 0.
	boundary := []forgery{
		{"negative-count", "channel count -1", edit(func(counts []int32) []int32 {
			counts[len(counts)/2] = -1
			return counts
		})},
		{"wrong-length", "length", edit(func(counts []int32) []int32 { return append(counts, 0) })},
		{"not-int32s", "arrived as int", func(any) any { return 7 }},
	}
	deltas := func(tag int) []forgery {
		return []forgery{
			{"odd-length", "length", edit(func(pairs []int32) []int32 { return append(pairs, 0) })},
			{"index-1", "index -1", edit(func(pairs []int32) []int32 { return append([]int32{-1, 1}, pairs...) })},
			{"index-past-end", fmt.Sprintf("index %d", tableLen[tag]), edit(func(pairs []int32) []int32 {
				return append(pairs, int32(tableLen[tag]), 1)
			})},
			{"negative-cell", "change", edit(func(pairs []int32) []int32 {
				pairs[1] = -1 << 20
				return pairs
			})},
			{"not-int32s", "arrived as int", func(any) any { return 7 }},
		}
	}
	cases := []struct {
		name      string
		run       worker
		tag       int
		forger    int // the rank that lies
		forgeries []forgery
	}{
		{"rowwise/fake-pins", rowWiseStages, tagFakePins, 1, fakePins},
		{"hybrid/fake-pins", hybridStages, tagFakePins, 1, fakePins},
		{"hybrid/net-nodes", hybridStages, tagNetNodes, 1, nodes},
		{"netwise/crossings", netWiseStages, tagCrossings, 1, indexed(func(net, row, x int32) func(any) any {
			return appendTo[CrossingBatch](CrossingMsg{Net: net, X: x, Row: row})
		})},
		{"netwise/grid-delta", netWiseStages, tagGridSync, 1, deltas(tagGridSync)},
		{"netwise/occ-delta", netWiseStages, tagOccSync, 1, deltas(tagOccSync)},
		{"netwise/net-nodes", netWiseStages, tagNetNodes, 1, nodes},
		{"netwise/ft-nodes", netWiseStages, tagFtNodes, 1, nodes},
		{"rowwise/boundary-lo", rowWiseStages, tagBoundaryLo, 1, boundary},
		{"hybrid/boundary-hi", hybridStages, tagBoundaryHi, 0, boundary},
		{"hybrid/wires-redist", hybridStages, tagWiresRedist, 1, wires},
		{"hybrid/wires", hybridStages, tagWires, 1, wires},
		{"netwise/wires", netWiseStages, tagWires, 1, wires},
		{"hybrid/summary", hybridStages, tagSummary, 1, []forgery{mistyped}},
	}
	for _, tc := range cases {
		for _, bad := range tc.forgeries {
			t.Run(tc.name+"/"+bad.name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				ctx, cancel := context.WithTimeout(context.Background(), cancelWatchdog)
				defer cancel()
				opt := Options{Procs: p, Mode: mp.Inproc, Route: route.Options{Seed: 1}}
				if err := opt.normalize(); err != nil {
					t.Fatal(err)
				}
				out := &runOutput{} // only rank 0 writes it, as under Run
				done := make(chan error, 1)
				go func() {
					_, err := mp.Config{Procs: p, Mode: mp.Inproc}.RunContext(ctx, func(comm mp.Comm) error {
						if comm.Rank() == tc.forger {
							comm = &forgingComm{Comm: comm, tag: tc.tag, forge: bad.forge}
						}
						return runRank(ctx, comm, c, blocks, owner, opt, out, tc.run)
					})
					done <- err
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(cancelWatchdog):
					t.Fatal("run with a forged batch did not return")
				}
				if err == nil && out.summaries != nil {
					// Gathered wires are checked where Run uses them: the merge.
					_, err = out.merge(c, opt)
				}
				if err == nil {
					t.Fatal("forged batch was accepted")
				}
				for _, want := range []string{fmt.Sprintf("from rank %d", tc.forger), fmt.Sprintf("tag %d", tc.tag), bad.field} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not name %q", err, want)
					}
				}
				requireSettledGoroutines(t, baseline)
			})
		}
	}
}

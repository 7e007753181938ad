package parallel

import (
	"context"
	"fmt"
	"slices"
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
)

// denseGrid and denseOcc return a table's counters flat, in delta index
// order, read through the cell accessors the delta code does not touch.
func denseGrid(g *grid.Grid) []int32 {
	flat := g.DensCounts()
	for row := 0; row < g.Rows; row++ {
		for col := 0; col < g.Cols; col++ {
			flat = append(flat, int32(g.FtDemand(row, col)))
		}
	}
	return flat
}

func denseOcc(o *route.Occupancy) []int32 {
	var flat []int32
	for ch := 0; ch < o.Channels; ch++ {
		flat = append(flat, o.ChannelCounts(ch)...)
	}
	return flat
}

// refAllreduceGrid is the net-wise grid sync as it stood before deltas:
// every rank flattens the whole grid of its own contributions, the vectors
// are summed by a full Allreduce, and a fresh global grid is built from the
// sum.
func refAllreduceGrid(comm mp.Comm, own *grid.Grid) (*grid.Grid, error) {
	sum, err := mp.AllreduceInt32s(comm, tagGridSync, denseGrid(own), mp.SumInt32s)
	if err != nil {
		return nil, err
	}
	g := grid.New(own.Rows, own.Cols*own.ColWidth, own.ColWidth)
	for i, v := range sum {
		r, col := i/own.Cols, i%own.Cols
		switch {
		case v == 0:
		case r < own.Channels:
			g.AddHoriz(r, geom.NewInterval(col*own.ColWidth, col*own.ColWidth), v)
		default:
			g.AddVert(r-own.Channels, r-own.Channels, col, v)
		}
	}
	return g, nil
}

// refAllreduceOcc is the occupancy sync as it stood: the whole own table
// summed by a full Allreduce into a table whose every peak cache starts
// invalid.
func refAllreduceOcc(comm mp.Comm, own *route.Occupancy) (*route.Occupancy, error) {
	sum, err := mp.AllreduceInt32s(comm, tagOccSync, denseOcc(own), mp.SumInt32s)
	if err != nil {
		return nil, err
	}
	o := route.NewOccupancy(own.Channels, own.Cols*own.ColWidth, own.ColWidth)
	for ch := 0; ch < own.Channels; ch++ {
		if err := o.AddChannelCounts(ch, sum[ch*own.Cols:(ch+1)*own.Cols]); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// syncCircuits generates the six small circuits the sync tests route.
func syncCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	var out []*circuit.Circuit
	for i := 0; i < 6; i++ {
		r := rng.New(uint64(2000 + i))
		rows := 8 + r.Intn(8)
		cells := rows * (12 + r.Intn(24))
		nets := cells/2 + r.Intn(cells)
		c, err := gen.Generate(gen.Config{
			Name: fmt.Sprintf("sync%d", i), Rows: rows, Cells: cells,
			Nets: nets, TargetPins: nets * 7 / 2, Seed: uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// rankEnd is what one rank of a net-wise run holds when its stages finish.
type rankEnd struct {
	wires []metrics.Wire
	sum   Summary
	rand  rng.RNG
	syncs int
}

// runNetWiseRanks runs the net-wise stage list at P ranks on mp.Inproc and
// returns every rank's end state; hook, if not nil, sees the rank and its
// replicated table after every sync.
func runNetWiseRanks(t *testing.T, c *circuit.Circuit, p, syncPerPass int, seed uint64,
	hook func(r *rank, tag int, table deltaTable) error) []rankEnd {

	t.Helper()
	blocks, err := partition.RowBlocks(c, p)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := partition.Nets(c, blocks, p, partition.Config{Method: partition.PinWeight})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Algo: NetWise, Procs: p, Mode: mp.Inproc, NetwiseSyncPerPass: syncPerPass, Route: route.Options{Seed: seed}}
	if err := opt.normalize(); err != nil {
		t.Fatal(err)
	}
	ends := make([]rankEnd, p) // each rank writes its own slot
	ctx, cancel := context.WithTimeout(context.Background(), 6*cancelWatchdog)
	defer cancel()
	_, err = mp.Config{Procs: p, Mode: mp.Inproc}.RunContext(ctx, func(comm mp.Comm) error {
		return runRank(ctx, comm, c, blocks, owner, opt, &runOutput{}, func(r *rank) []pipeline.Stage {
			end := &ends[comm.Rank()]
			r.afterSync = func(tag int, table deltaTable) error {
				end.syncs++
				if hook == nil {
					return nil
				}
				return hook(r, tag, table)
			}
			return append(netWiseStages(r), stage("capture", func(*pipeline.Session) error {
				end.wires, end.sum, end.rand = slices.Clone(r.wires), r.sum, *r.rt.Rand
				return nil
			}))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return ends
}

// TestDeltaSyncMatchesFullAllreduce holds the delta sync to the form it
// replaced. In the reference run every sync is followed, on every rank, by
// the full Allreduce of the ranks' own contributions, each rebuilt from what
// the rank routes — its segments' runs, its wires — and not from the table
// under test: the replicated table must equal the result cell for cell, and
// every occupancy peak cache is then invalidated, as the full form's install
// did — so the reference run's flips never lean on a cache the delta path
// kept. The plain run must end where the reference run did: same wires, same
// flip counts, same rng state, on every rank.
func TestDeltaSyncMatchesFullAllreduce(t *testing.T) {
	for _, c := range syncCircuits(t) {
		for _, p := range []int{2, 3, 4, 8} {
			for _, syncPerPass := range []int{-1, 1, 4, 7} {
				name := fmt.Sprintf("%s/p%d/sync%d", c.Name, p, syncPerPass)
				ref := runNetWiseRanks(t, c, p, syncPerPass, 3, func(r *rank, tag int, table deltaTable) error {
					var got, want []int32
					switch table := table.(type) {
					case *grid.Grid:
						own := grid.New(table.Rows, table.Cols*table.ColWidth, table.ColWidth)
						for i := range r.rt.Segs {
							route.ApplyRuns(own, r.rt.Segs[i].CurrentRuns(), 1)
						}
						ref, err := refAllreduceGrid(r.comm, own)
						if err != nil {
							return err
						}
						got, want = denseGrid(table), denseGrid(ref)
					case *route.Occupancy:
						own := route.NewOccupancy(table.Channels, table.Cols*table.ColWidth, table.ColWidth)
						own.AddWires(r.wires)
						ref, err := refAllreduceOcc(r.comm, own)
						if err != nil {
							return err
						}
						got, want = denseOcc(table), denseOcc(ref)
						for ch := 0; ch < table.Channels; ch++ {
							if err := table.AddChannelCounts(ch, make([]int32, table.Cols)); err != nil {
								return err
							}
						}
					}
					if !slices.Equal(got, want) || len(want) == 0 {
						return fmt.Errorf("%s: rank %d: replicated table differs from the full Allreduce after a tag %d sync", name, r.comm.Rank(), tag)
					}
					return nil
				})
				got := runNetWiseRanks(t, c, p, syncPerPass, 3, nil)
				flips := 0
				for k := range ref {
					if !slices.Equal(got[k].wires, ref[k].wires) || len(ref[k].wires) == 0 {
						t.Fatalf("%s: rank %d: wires differ from the reference run (%d vs %d)", name, k, len(got[k].wires), len(ref[k].wires))
					}
					if got[k].sum.CoarseFlips != ref[k].sum.CoarseFlips || got[k].sum.SwitchFlips != ref[k].sum.SwitchFlips {
						t.Fatalf("%s: rank %d: flips %d/%d, reference run %d/%d", name, k,
							got[k].sum.CoarseFlips, got[k].sum.SwitchFlips, ref[k].sum.CoarseFlips, ref[k].sum.SwitchFlips)
					}
					if got[k].rand != ref[k].rand {
						t.Fatalf("%s: rank %d: rng stands elsewhere than in the reference run", name, k)
					}
					if got[k].syncs != ref[k].syncs || got[k].syncs != got[0].syncs {
						t.Fatalf("%s: rank %d made %d syncs, reference run %d, rank 0 %d", name, k, got[k].syncs, ref[k].syncs, got[0].syncs)
					}
					flips += ref[k].sum.CoarseFlips + ref[k].sum.SwitchFlips
				}
				// Two syncs open and close coarse and one opens step 5 at
				// every setting; mid-pass ones come on top.
				if min := 3; got[0].syncs < min || (syncPerPass > 0 && got[0].syncs < min+2*syncPerPass) {
					t.Fatalf("%s: only %d syncs", name, got[0].syncs)
				}
				if flips == 0 {
					t.Fatalf("%s: no flip taken: nothing moved between syncs", name)
				}
			}
		}
	}
}

// TestNetWiseFlipsAreSerialFlips pins that there is one flip. With the sync a
// no-op, the vote the rank's own count and every pass one chunk, the net-wise
// visit (syncedPasses over route.BendFlips, then route.SwitchFlips) must end
// exactly where the serial router's one-band sweeps over the same candidates
// end — CoarseRoute and OptimizeSwitchable at one worker: every bend, both
// grid tables, every wire channel, the occupancy, the flip counts and where
// the rng stands. The visit order is part of all of these.
func TestNetWiseFlipsAreSerialFlips(t *testing.T) {
	ctx := context.Background()
	for _, c := range syncCircuits(t) {
		ropt := route.Options{Seed: 11}
		rt := route.NewRouter(c.Clone(), ropt)
		if err := rt.BuildTrees(ctx); err != nil {
			t.Fatal(err)
		}
		r := &rank{opt: Options{NetwiseSyncPerPass: 1}, rt: route.NewRouter(nil, ropt)}
		syncs := 0
		sync := func() error { syncs++; return nil }
		own := func(flips int) (int, error) { return flips, nil }

		segs := slices.Clone(rt.Segs)
		g := grid.New(len(c.Rows), c.CoreWidth(), grid.ColWidth)
		for i := range segs {
			route.ApplyRuns(g, segs[i].CurrentRuns(), 1)
		}
		n, _, flip, err := route.BendFlips(ctx, 1, g, segs)
		if err != nil {
			t.Fatal(err)
		}
		bends, err := r.syncedPasses(n, rt.Opt.CoarsePasses, flip, sync, own)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.CoarseRoute(ctx); err != nil {
			t.Fatal(err)
		}
		if bends != rt.CoarseFlips || bends == 0 || syncs == 0 {
			t.Fatalf("%s: %d bend flips over %d syncs, serial sweep %d", c.Name, bends, syncs, rt.CoarseFlips)
		}
		if !slices.Equal(segs, rt.Segs) || !slices.Equal(denseGrid(g), denseGrid(rt.Grid)) {
			t.Fatalf("%s: bends or grid differ from the serial sweep", c.Name)
		}
		if *r.rt.Rand != *rt.Rand {
			t.Fatalf("%s: rng stands elsewhere after the bend flips", c.Name)
		}

		if err := rt.InsertFeedthroughs(); err != nil {
			t.Fatal(err)
		}
		if err := rt.AssignFeedthroughs(ctx); err != nil {
			t.Fatal(err)
		}
		if err := rt.ConnectNets(ctx); err != nil {
			t.Fatal(err)
		}
		wires, refWires := slices.Clone(rt.Wires), slices.Clone(rt.Wires)
		occ := route.NewOccupancy(c.NumChannels(), rt.C.CoreWidth(), grid.ColWidth)
		occ.AddWires(wires)
		refOcc := occ.Clone()
		n, _, flip, err = route.SwitchFlips(ctx, 1, occ, wires)
		if err != nil {
			t.Fatal(err)
		}
		switches, err := r.syncedPasses(n, rt.Opt.SwitchPasses, flip, sync, own)
		if err != nil {
			t.Fatal(err)
		}
		refSwitches, _, err := route.OptimizeSwitchable(ctx, 1, refWires, refOcc, rt.Rand, rt.Opt.SwitchPasses)
		if err != nil {
			t.Fatal(err)
		}
		if switches != refSwitches || switches == 0 {
			t.Fatalf("%s: %d switch flips, serial sweep %d", c.Name, switches, refSwitches)
		}
		if !slices.Equal(wires, refWires) || !slices.Equal(denseOcc(occ), denseOcc(refOcc)) {
			t.Fatalf("%s: wires or occupancy differ from the serial sweep", c.Name)
		}
		if *r.rt.Rand != *rt.Rand {
			t.Fatalf("%s: rng stands elsewhere after the switch flips", c.Name)
		}
	}
}

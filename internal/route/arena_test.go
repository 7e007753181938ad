package route

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"parroute/internal/gen"
)

// refAssignArena is the head of step 3 as it was before it went on the pool:
// one goroutine counts the crossings per row, prefix-sums and fills. It is
// the definition TestCrossingArenaMatchesSerialFill holds crossingArena to.
func refAssignArena(rt *Router) (arena []crossing, rowOff []int) {
	rowOff = make([]int, len(rt.C.Rows)+1)
	for i := range rt.Segs {
		if runs := rt.Segs[i].CurrentRuns(); runs.HasVert() {
			for row := runs.VLo; row <= runs.VHi; row++ {
				rowOff[row+1]++
			}
		}
	}
	for r := range rt.C.Rows {
		rowOff[r+1] += rowOff[r]
	}
	arena = make([]crossing, rowOff[len(rt.C.Rows)])
	cursor := slices.Clone(rowOff)
	for i := range rt.Segs {
		if runs := rt.Segs[i].CurrentRuns(); runs.HasVert() {
			for row := runs.VLo; row <= runs.VHi; row++ {
				arena[cursor[row]] = crossing{net: rt.Segs[i].Net, x: int32(runs.VCol), seg: int32(i)}
				cursor[row]++
			}
		}
	}
	return arena, rowOff
}

// TestCrossingArenaMatchesSerialFill routes six circuits up to feedthrough
// insertion and builds the step-3 arena at one, two, three and eight chunks
// and at more chunks than there are segments: the arena and the row offsets
// equal the serial form's on a copy of the same state, and no net's pin
// list changes (the binds go in afterwards, in one BindPins).
func TestCrossingArenaMatchesSerialFill(t *testing.T) {
	ctx := context.Background()
	for _, c := range bandCircuits(t) {
		rt := NewRouter(c.Clone(), Options{Seed: 5, Workers: 2})
		if err := errors.Join(rt.BuildTrees(ctx), rt.CoarseRoute(ctx), rt.InsertFeedthroughs()); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8, len(rt.Segs) + 5} {
			name := fmt.Sprintf("%s workers=%d", c.Name, workers)
			ref, got := *rt, *rt
			ref.C, got.C = rt.C.Clone(), rt.C.Clone()
			got.Opt.Workers = workers
			refArena, refOff := refAssignArena(&ref)
			arena, rowOff, err := got.crossingArena(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(arena) == 0 || !slices.Equal(arena, refArena) || !slices.Equal(rowOff, refOff) {
				t.Fatalf("%s: arena of %d crossings differs from the serial fill's %d", name, len(arena), len(refArena))
			}
			for n := range got.C.Nets {
				if !slices.Equal(got.C.NetPins(n), rt.C.NetPins(n)) {
					t.Fatalf("%s: net %d's pin list changed", name, n)
				}
			}
		}
	}
}

// TestSwitchableCensusIsNotATally: the step methods are exported and may be
// driven more than once on one router; the switchable-wire count of the
// result is then still the number of switchable wires, not a running sum.
func TestSwitchableCensusIsNotATally(t *testing.T) {
	ctx := context.Background()
	rt := NewRouter(gen.Small(9), Options{Seed: 9, Workers: 2})
	if err := errors.Join(rt.BuildTrees(ctx), rt.CoarseRoute(ctx), rt.InsertFeedthroughs(),
		rt.AssignFeedthroughs(ctx), rt.ConnectNets(ctx), rt.OptimizeSwitchable(ctx)); err != nil {
		t.Fatal(err)
	}
	once := rt.Result("twgr-serial", 1, 0).SwitchableWires
	if err := rt.OptimizeSwitchable(ctx); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, w := range rt.Wires {
		if w.Switchable && !w.Span().Empty() {
			want++
		}
	}
	if twice := rt.Result("twgr-serial", 1, 0).SwitchableWires; once != want || twice != want || want == 0 {
		t.Fatalf("%d switchable wires: the result says %d after one step 5 and %d after two", want, once, twice)
	}
}

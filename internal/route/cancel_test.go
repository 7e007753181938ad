package route

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parroute/internal/gen"
	"parroute/internal/grid"
	"parroute/internal/workpool"
)

// countdownCtx reports context.Canceled from its left-th Err call on: a
// cancellation that lands at a chosen depth inside a stage, on any machine.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestPooledStagesCancelMidRoute drives the worker-pooled stages with a
// context that dies between pipeline steps, and the three ordered sweeps
// with one that dies inside them: each must unwind with an error wrapping
// context.Canceled and leave no goroutines behind (the -race cancellation
// tier runs this).
func TestPooledStagesCancelMidRoute(t *testing.T) {
	c := gen.Small(11)

	t.Run("steiner", func(t *testing.T) {
		rt := NewRouter(c, Options{Seed: 7, Workers: 4})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := rt.BuildTrees(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("BuildTrees: err = %v, want context.Canceled", err)
		}
	})

	t.Run("ft-assign", func(t *testing.T) {
		rt := NewRouter(c, Options{Seed: 7, Workers: 4})
		if err := rt.BuildTrees(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := rt.CoarseRoute(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := rt.InsertFeedthroughs(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := rt.AssignFeedthroughs(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("AssignFeedthroughs: err = %v, want context.Canceled", err)
		}
	})

	t.Run("connect", func(t *testing.T) {
		rt := NewRouter(c, Options{Seed: 7, Workers: 4})
		if err := rt.BuildTrees(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := rt.CoarseRoute(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := rt.InsertFeedthroughs(); err != nil {
			t.Fatal(err)
		}
		if err := rt.AssignFeedthroughs(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := rt.ConnectNets(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("ConnectNets: err = %v, want context.Canceled", err)
		}
	})

	// The three ordered sweeps, cancelled ever deeper inside — at one band
	// and at several (the cut threshold is lowered so primary2 has eight):
	// each must come back inside the watchdog with an error wrapping
	// context.Canceled and every goroutine gone, never one left waiting at a
	// seam; and at least one cut per sweep must land mid-sweep, with part of
	// the work done.
	t.Run("sweeps", func(t *testing.T) {
		defer workpool.SetMinBandOpsForTest(64)()
		p2, err := gen.Benchmark("primary2", 7)
		if err != nil {
			t.Fatal(err)
		}
		bg := context.Background()
		for _, workers := range []int{1, 2, 8} {
			rt := NewRouter(p2.Clone(), Options{Seed: 7, Workers: workers})
			if err := rt.BuildTrees(bg); err != nil {
				t.Fatal(err)
			}
			segs, rnd := slices.Clone(rt.Segs), *rt.Rand
			if err := errors.Join(rt.CoarseRoute(bg), rt.InsertFeedthroughs(), rt.AssignFeedthroughs(bg), rt.ConnectNets(bg)); err != nil {
				t.Fatal(err)
			}
			placed, occ, rndSwitch := slices.Clone(rt.Wires), rt.occ, *rt.Rand
			if err := rt.OptimizeSwitchable(bg); err != nil {
				t.Fatal(err)
			}
			total := func(o *Occupancy) (n int64) {
				for _, v := range o.Counts() {
					n += int64(v)
				}
				return n
			}
			// Each sweep runs under ctx on fresh copies of its input and
			// returns how much it got done and how much there is to do.
			sweeps := []struct {
				name string
				run  func(ctx context.Context) (done, all int64, err error)
			}{
				{"coarse", func(ctx context.Context) (int64, int64, error) {
					r := NewRouter(rt.C, rt.Opt)
					r.Segs, *r.Rand = slices.Clone(segs), rnd
					err := r.CoarseRoute(ctx)
					return int64(r.CoarseFlips), int64(rt.CoarseFlips), err
				}},
				{"connect", func(ctx context.Context) (int64, int64, error) {
					wires := slices.Clone(placed)
					o := NewOccupancy(occ.Channels, rt.C.CoreWidth(), grid.ColWidth)
					err := o.PlaceWires(ctx, workers, wires)
					return total(o), total(occ), err
				}},
				{"switch-opt", func(ctx context.Context) (int64, int64, error) {
					wires := slices.Clone(placed)
					o := NewOccupancy(occ.Channels, rt.C.CoreWidth(), grid.ColWidth)
					o.AddWires(wires)
					r := rndSwitch
					flips, _, err := OptimizeSwitchable(ctx, workers, wires, o, &r, rt.Opt.SwitchPasses)
					return int64(flips), int64(rt.SwitchFlips), err
				}},
			}
			for _, sw := range sweeps {
				before, midSweep := runtime.NumGoroutine(), false
				for cut := int64(1); ; cut += cut/2 + 1 {
					ctx := &countdownCtx{Context: bg}
					ctx.left.Store(cut)
					type outcome struct {
						done, all int64
						err       error
					}
					ch := make(chan outcome, 1)
					go func() {
						done, all, err := sw.run(ctx)
						ch <- outcome{done, all, err}
					}()
					var got outcome
					select {
					case got = <-ch:
					case <-time.After(time.Minute):
						t.Fatalf("%s workers=%d cut=%d: did not return", sw.name, workers, cut)
					}
					if got.err == nil {
						if got.done != got.all {
							t.Fatalf("%s workers=%d cut=%d: no error, but %d of %d done", sw.name, workers, cut, got.done, got.all)
						}
						break // the cut lies beyond the stage's last look at ctx
					}
					if !errors.Is(got.err, context.Canceled) {
						t.Fatalf("%s workers=%d cut=%d: err = %v, want context.Canceled", sw.name, workers, cut, got.err)
					}
					midSweep = midSweep || got.done > 0 && got.done < got.all
				}
				if !midSweep {
					t.Errorf("%s workers=%d: no cancellation landed inside the sweep", sw.name, workers)
				}
				if err := settle(before); err != nil {
					t.Errorf("%s workers=%d: %v", sw.name, workers, err)
				}
			}
		}
	})

	// The whole-array passes that run on the pool ahead of a sort or a sweep
	// — step 3's crossing arena, the step-2 and step-5 candidate lists — cut
	// at every look they take at ctx, on their own and through their stage:
	// each cut comes back as context.Canceled (under the stage's prefix) with
	// every goroutine gone, at least one of them past the first look, inside
	// the build; the first cut a build outlives leaves the full list.
	t.Run("lists", func(t *testing.T) {
		p2, err := gen.Benchmark("primary2", 7)
		if err != nil {
			t.Fatal(err)
		}
		bg := context.Background()
		for _, workers := range []int{1, 2, 8} {
			// fresh is a router over its own copy of the circuit, in the state
			// the first upTo steps leave.
			fresh := func(upTo int) *Router {
				rt := NewRouter(p2.Clone(), Options{Seed: 7, Workers: workers})
				steps := []func() error{
					func() error { return rt.BuildTrees(bg) },
					func() error { return rt.CoarseRoute(bg) },
					rt.InsertFeedthroughs,
					func() error { return rt.AssignFeedthroughs(bg) },
					func() error { return rt.ConnectNets(bg) },
				}
				for _, step := range steps[:upTo] {
					if err := step(); err != nil {
						t.Fatal(err)
					}
				}
				return rt
			}
			trees, inserted, connected := fresh(1), fresh(3), fresh(5)
			for _, build := range []struct {
				name, prefix string
				run          func(ctx context.Context) (listed int, err error)
			}{
				{"arena", "", func(ctx context.Context) (int, error) {
					arena, _, err := inserted.crossingArena(ctx)
					return len(arena), err
				}},
				{"bend list", "", func(ctx context.Context) (int, error) {
					n, _, _, err := BendFlips(ctx, workers, inserted.Grid, inserted.Segs)
					return n, err
				}},
				{"switch list", "", func(ctx context.Context) (int, error) {
					n, _, _, err := SwitchFlips(ctx, workers, connected.occ, connected.Wires)
					return n, err
				}},
				{"coarse", "route: coarse: ", func(ctx context.Context) (int, error) {
					r := NewRouter(trees.C, trees.Opt)
					r.Segs = slices.Clone(trees.Segs)
					return 1, r.CoarseRoute(ctx)
				}},
				{"ft-assign", "route: ft-assign: ", func(ctx context.Context) (int, error) {
					return 1, fresh(3).AssignFeedthroughs(ctx)
				}},
				{"switch-opt", "route: switch-opt: ", func(ctx context.Context) (int, error) {
					r := NewRouter(connected.C, connected.Opt)
					r.Wires = slices.Clone(connected.Wires)
					return 1, r.OptimizeSwitchable(ctx)
				}},
			} {
				all, err := build.run(bg)
				if err != nil || all == 0 {
					t.Fatalf("%s workers=%d undisturbed: %d listed, err = %v", build.name, workers, all, err)
				}
				before, cancelled := runtime.NumGoroutine(), 0
				for cut := int64(0); ; cut++ { // the first cut looks pass
					ctx := &countdownCtx{Context: bg}
					ctx.left.Store(cut)
					n, err := build.run(ctx)
					if err == nil {
						if n != all {
							t.Fatalf("%s workers=%d cut=%d: no error, but %d of %d listed", build.name, workers, cut, n, all)
						}
						break
					}
					if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), build.prefix) {
						t.Fatalf("%s workers=%d cut=%d: err = %v, want %scontext canceled", build.name, workers, cut, err, build.prefix)
					}
					cancelled++
				}
				if cancelled < 2 {
					t.Errorf("%s workers=%d: no cancellation landed inside the build", build.name, workers)
				}
				if err := settle(before); err != nil {
					t.Errorf("%s workers=%d: %v", build.name, workers, err)
				}
			}
		}
	})

	// A cancelled pooled run must not poison the router: the same circuit
	// routes cleanly afterwards with a fresh router at the same settings.
	t.Run("recover", func(t *testing.T) {
		rt := NewRouter(c, Options{Seed: 7, Workers: 4})
		if _, err := rt.Run(context.Background()); err != nil {
			t.Fatalf("clean run after cancelled runs: %v", err)
		}
	})
}

// settle waits for the goroutine count to come back down to before.
func settle(before int) error {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if runtime.NumGoroutine() <= before {
			return nil
		}
	}
	return fmt.Errorf("goroutines did not settle: %d now, %d before", runtime.NumGoroutine(), before)
}

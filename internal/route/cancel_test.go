package route

import (
	"context"
	"errors"
	"testing"

	"parroute/internal/gen"
)

// TestPooledStagesCancelMidRoute drives the worker-pooled stages with a
// context that dies between pipeline steps: each pooled stage (steiner,
// ft-assign, connect) must unwind with an error wrapping context.Canceled
// and leave no goroutines behind (the -race cancellation tier runs this).
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
		rt.CoarseRoute()
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
		rt.CoarseRoute()
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

	// A cancelled pooled run must not poison the router: the same circuit
	// routes cleanly afterwards with a fresh router at the same settings.
	t.Run("recover", func(t *testing.T) {
		rt := NewRouter(c, Options{Seed: 7, Workers: 4})
		if _, err := rt.Run(context.Background()); err != nil {
			t.Fatalf("clean run after cancelled runs: %v", err)
		}
	})
}

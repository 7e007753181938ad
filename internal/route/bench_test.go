package route

import (
	"context"
	"testing"

	"parroute/internal/gen"
	"parroute/internal/rng"
)

// BenchmarkPhases measures each TWGR phase on primary2.
func BenchmarkPhases(b *testing.B) {
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("steiner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := NewRouter(c.Clone(), Options{Seed: 1})
			if err := rt.BuildTrees(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coarse", func(b *testing.B) {
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			rt := NewRouter(c.Clone(), Options{Seed: 1})
			if err := rt.BuildTrees(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := rt.CoarseRoute(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Route(context.Background(), c, Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConnectNodes measures step 4 at clock-net scale.
func BenchmarkConnectNodes(b *testing.B) {
	r := rng.New(3)
	nodes := make([]Node, 3000)
	for i := range nodes {
		nodes[i] = Node{X: int32(r.Intn(3000)), Row: int32(r.Intn(80)), Side: 2 /* Both */}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConnectNodes(0, nodes, nil)
	}
}

// BenchmarkSwitchOpt measures step 5 on a realistic wire population.
func BenchmarkSwitchOpt(b *testing.B) {
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		b.Fatal(err)
	}
	rt := NewRouter(c.Clone(), Options{Seed: 1})
	ctx := context.Background()
	if err := rt.BuildTrees(ctx); err != nil {
		b.Fatal(err)
	}
	if err := rt.CoarseRoute(ctx); err != nil {
		b.Fatal(err)
	}
	if err := rt.InsertFeedthroughs(); err != nil {
		b.Fatal(err)
	}
	if err := rt.AssignFeedthroughs(ctx); err != nil {
		b.Fatal(err)
	}
	if err := rt.ConnectNets(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append(rt.Wires[:0:0], rt.Wires...)
		occ := NewOccupancy(rt.C.NumChannels(), rt.C.CoreWidth(), 16)
		occ.AddWires(cp)
		if _, _, err := OptimizeSwitchable(ctx, 1, cp, occ, rng.New(uint64(i)), 3); err != nil {
			b.Fatal(err)
		}
	}
}

package route_test

import (
	"context"
	"fmt"

	"parroute/internal/gen"
	"parroute/internal/route"
)

// ExampleRoute routes a small synthetic circuit serially and prints the
// quality measures the paper reports.
func ExampleRoute() {
	c := gen.Tiny(1)
	res, err := route.Route(context.Background(), c, route.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	again, err := route.Route(context.Background(), c, route.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("tracks:", res.TotalTracks)
	fmt.Println("forced edges:", res.ForcedEdges)
	fmt.Println("deterministic:", res.TotalTracks == again.TotalTracks)
	// Output:
	// tracks: 31
	// forced edges: 0
	// deterministic: true
}

// ExampleRouter_Verify shows the phase-by-phase API with post-route
// verification.
func ExampleRouter_Verify() {
	c := gen.Tiny(1)
	ctx := context.Background()
	rt := route.NewRouter(c.Clone(), route.Options{Seed: 1})
	if err := rt.BuildTrees(ctx); err != nil {
		panic(err)
	}
	if err := rt.CoarseRoute(ctx); err != nil {
		panic(err)
	}
	if err := rt.InsertFeedthroughs(); err != nil {
		panic(err)
	}
	if err := rt.AssignFeedthroughs(ctx); err != nil {
		panic(err)
	}
	if err := rt.ConnectNets(ctx); err != nil {
		panic(err)
	}
	if err := rt.OptimizeSwitchable(ctx); err != nil {
		panic(err)
	}
	fmt.Println("verified:", rt.Verify() == nil)
	// Output:
	// verified: true
}

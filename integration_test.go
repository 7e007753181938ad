// Repository-level integration tests: the invariants that hold for a
// correct global route (checkResult, which TestAllPresetsSerial,
// TestAllPresetsParallel and TestPaperTables apply to every result of the
// paper's evaluation), seed stability and the
// partition heuristics end to end.
package parroute_test

import (
	"context"
	"testing"

	"parroute/internal/channel"
	"parroute/internal/gen"
	"parroute/internal/metrics"
	"parroute/internal/parallel"
	"parroute/internal/partition"
	"parroute/internal/route"
)

// checkResult asserts the invariants every routing result must satisfy.
func checkResult(t *testing.T, name string, numChannels int, res *metrics.Result) {
	t.Helper()
	if res.ForcedEdges != 0 {
		t.Errorf("%s: %d forced edges (connectivity gaps)", name, res.ForcedEdges)
	}
	if res.TotalTracks <= 0 || res.Area <= 0 || res.Wirelength <= 0 {
		t.Errorf("%s: degenerate quality numbers: %+v", name, res)
	}
	if len(res.ChannelDensity) != numChannels {
		t.Errorf("%s: %d channel densities for %d channels",
			name, len(res.ChannelDensity), numChannels)
	}
	// Densities recompute identically from the wires.
	d := metrics.ChannelDensities(numChannels, res.Wires, 1)
	for ch := range d {
		if d[ch] != res.ChannelDensity[ch] {
			t.Errorf("%s: channel %d density %d, recomputed %d",
				name, ch, res.ChannelDensity[ch], d[ch])
		}
	}
	// Every wire lies within the core and in a valid channel.
	for i := range res.Wires {
		w := &res.Wires[i]
		if w.Channel < 0 || int(w.Channel) >= numChannels {
			t.Errorf("%s: wire %d in channel %d", name, i, w.Channel)
		}
		if !w.Span().Empty() && (w.Span().Lo < 0 || int(w.Span().Hi) > res.CoreWidth) {
			t.Errorf("%s: wire %d span %v outside core width %d",
				name, i, w.Span(), res.CoreWidth)
		}
	}
	// The detailed channel router can realize the result with a bounded
	// premium over the density lower bound.
	sum := channel.RouteAll(numChannels, res.Wires)
	if sum.DensityTracks != res.TotalTracks {
		t.Errorf("%s: channel density sum %d != result tracks %d",
			name, sum.DensityTracks, res.TotalTracks)
	}
	if sum.AssignedTracks < sum.DensityTracks ||
		float64(sum.AssignedTracks) > 1.2*float64(sum.DensityTracks) {
		t.Errorf("%s: assigned %d tracks for density %d",
			name, sum.AssignedTracks, sum.DensityTracks)
	}
}

func TestSerialQualityStableAcrossSeeds(t *testing.T) {
	// The randomized improvement steps must not make quality swing wildly
	// between seeds — TWGR's solution quality is "independent of the
	// routing order of the nets" (paper §1).
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi int
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := route.Route(context.Background(), c, route.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if lo == 0 || res.TotalTracks < lo {
			lo = res.TotalTracks
		}
		if res.TotalTracks > hi {
			hi = res.TotalTracks
		}
	}
	if float64(hi-lo) > 0.05*float64(lo) {
		t.Fatalf("track counts swing %d..%d across seeds (>5%%)", lo, hi)
	}
}

func TestPartitionMethodsEndToEnd(t *testing.T) {
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range partition.Methods() {
		res, err := parallel.Run(context.Background(), c, parallel.Options{
			Algo:  parallel.RowWise,
			Procs: 4,
			Route: route.Options{Seed: 1},
			Net:   partition.Config{Method: m},
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		checkResult(t, "rowwise/"+m.String(), c.NumChannels(), res)
	}
}

// Root benchmarks: the serial router per circuit, the baseline every
// speedup of the paper is computed against, and the L-flip pass count
// knob. The paper's tables are TestPaperTables (paper_test.go); the perf
// ledger is `go run ./benchmark`.
package parroute_test

import (
	"context"
	"testing"

	"parroute/internal/gen"
	"parroute/internal/route"
)

// BenchmarkSerialRoute measures the plain serial router per circuit — the
// baseline every speedup in the paper is computed against.
func BenchmarkSerialRoute(b *testing.B) {
	for _, name := range []string{"primary2", "biomed"} {
		b.Run(name, func(b *testing.B) {
			c, err := gen.Benchmark(name, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var tracks int
			for i := 0; i < b.N; i++ {
				res, err := route.Route(context.Background(), c, route.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				tracks = res.TotalTracks
			}
			b.ReportMetric(float64(tracks), "tracks")
		})
	}
}

// BenchmarkCoarseLFlipAblation measures how L-flip improvement passes
// trade runtime for coarse-grid cost — the design knob DESIGN.md lists.
func BenchmarkCoarseLFlipAblation(b *testing.B) {
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, passes := range []int{1, 3, 6} {
		b.Run(map[int]string{1: "passes-1", 3: "passes-3", 6: "passes-6"}[passes], func(b *testing.B) {
			var flips int
			for i := 0; i < b.N; i++ {
				res, err := route.Route(context.Background(), c, route.Options{Seed: 1, CoarsePasses: passes})
				if err != nil {
					b.Fatal(err)
				}
				flips = res.CoarseFlips
			}
			b.ReportMetric(float64(flips), "flips")
		})
	}
}

package parallel

import (
	"context"
	"testing"

	"parroute/internal/gen"
	"parroute/internal/mp"
	"parroute/internal/route"
)

// BenchmarkHybridP2 is one hybrid Run at P=2 on mp.Inproc over avq.small:
// the hybrid path's time, B/op and allocs/op in one command, without the
// whole benchmark suite.
func BenchmarkHybridP2(b *testing.B) {
	c, err := gen.Benchmark("avq.small", 7)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Algo: Hybrid, Procs: 2, Mode: mp.Inproc, Route: route.Options{Seed: 7}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), c, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetwiseP2 is one net-wise Run at P=2 on mp.TCP over avq.small:
// mesh set-up, every sync's codecs and sockets, and the merge, with B/op
// and allocs/op.
func BenchmarkNetwiseP2(b *testing.B) {
	c, err := gen.Benchmark("avq.small", 7)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Algo: NetWise, Procs: 2, Mode: mp.TCP, Route: route.Options{Seed: 7}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), c, opt); err != nil {
			b.Fatal(err)
		}
	}
}

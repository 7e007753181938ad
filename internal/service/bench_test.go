package service

import (
	"context"
	"testing"

	"parroute/internal/parallel"
	"parroute/internal/runcfg"
)

// BenchmarkCanonicalResult: serializing one primary2 serial route into the
// canonical bytes a cache entry holds.
func BenchmarkCanonicalResult(b *testing.B) {
	c, err := runcfg.LoadPreset("primary2", 7)
	if err != nil {
		b.Fatal(err)
	}
	run := runcfg.Default()
	opts, err := run.Options()
	if err != nil {
		b.Fatal(err)
	}
	res, err := parallel.RunBaseline(context.Background(), c, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := CanonicalResult(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputeMiss: one daemon cache miss on primary2, as the
// twgrd-miss workload sends it (serial, a never-repeated seed), from
// Submit to the result: load, route, canonical bytes, cache put.
func BenchmarkComputeMiss(b *testing.B) {
	srv := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	defer srv.Wait()
	defer cancel()
	seed := uint64(0)
	b.ReportAllocs()
	for b.Loop() {
		seed++
		ticket, err := srv.Submit(ctx, JobSpec{Preset: "primary2", Algo: runcfg.AlgoSerial, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ticket.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

package service

import (
	"context"
	"net/http"
	"testing"

	"parroute/internal/metrics"
	"parroute/internal/parallel"
	"parroute/internal/runcfg"
)

// BenchmarkCanonicalResult: serializing one primary2 serial route into the
// canonical bytes a cache entry holds.
func BenchmarkCanonicalResult(b *testing.B) {
	res := primary2Route(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := CanonicalResult(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteResult: writing one primary2 job.result response, a miss
// and a hit, to a writer that keeps nothing: the frame and its checksum,
// with no copy of the metrics.
func BenchmarkWriteResult(b *testing.B) {
	canon, err := CanonicalResult(primary2Route(b))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		hit  bool
	}{{"miss", false}, {"hit", true}} {
		b.Run(tc.name, func(b *testing.B) {
			res := &JobResult{Key: "preset:primary2@7|serial|p1|s1|pinweight", CacheHit: tc.hit, Metrics: canon}
			w := &nopResponse{header: http.Header{}}
			b.SetBytes(int64(len(canon)))
			b.ReportAllocs()
			for b.Loop() {
				writeEnvelope(w, http.StatusOK, KindResult, res)
			}
		})
	}
}

// BenchmarkReadResult: reading one primary2 job.result response, a miss
// and a hit, as a client does: Decode, which verifies the checksum, then
// DecodeBody into a JobResult.
func BenchmarkReadResult(b *testing.B) {
	canon, err := CanonicalResult(primary2Route(b))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		hit  bool
	}{{"miss", false}, {"hit", true}} {
		b.Run(tc.name, func(b *testing.B) {
			wire, err := Encode(KindResult, JobResult{Key: "preset:primary2@7|serial|p1|s1|pinweight", CacheHit: tc.hit, Metrics: canon})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(canon)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := decodeResult(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// decodeResult reads a job.result envelope the way a client does.
func decodeResult(data []byte) (*JobResult, error) {
	env, err := Decode(data)
	if err != nil {
		return nil, err
	}
	var res JobResult
	return &res, env.DecodeBody(KindResult, &res)
}

// primary2Route is one serial route of primary2 at the default options.
func primary2Route(b *testing.B) *metrics.Result {
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
	return res
}

// BenchmarkComputeMiss: one daemon cache miss on primary2, as the
// twgrd-miss workload sends it (serial, a never-repeated seed), from
// Submit to the result: load, route, canonical bytes, cache put.
func BenchmarkComputeMiss(b *testing.B) {
	srv := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	defer StopPool(b, srv, cancel)
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

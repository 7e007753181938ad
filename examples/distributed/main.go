// distributed runs the hybrid algorithm over the TCP engine: every worker
// communicates exclusively through framed parroute-mpwire/1 messages on loopback
// sockets — the deployment shape of the paper's Intel Paragon runs, with
// real serialization and kernel round trips on every message. It then
// repeats the run on the simulated DMP machine (the Paragon cost model)
// and on the simulated SMP, so the three timing regimes can be compared
// side by side; the routing result is identical in all three.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"parroute/internal/gen"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/parallel"
	"parroute/internal/route"
)

func main() {
	name := flag.String("circuit", "biomed", "benchmark circuit")
	procs := flag.Int("p", 4, "worker count")
	seed := flag.Uint64("seed", 7, "circuit and routing seed")
	flag.Parse()

	c, err := gen.Benchmark(*name, *seed)
	if err != nil {
		log.Fatal(err)
	}
	base, err := parallel.RunBaseline(context.Background(), c, parallel.Options{
		Procs: 1, Route: route.Options{Seed: *seed},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, hybrid algorithm, %d workers (serial: %d tracks, %v)\n\n",
		*name, *procs, base.TotalTracks, base.Elapsed)

	run := func(label string, mode mp.Mode, model mp.CostModel) *metrics.Result {
		res, err := parallel.Run(context.Background(), c, parallel.Options{
			Algo:  parallel.Hybrid,
			Procs: *procs,
			Mode:  mode,
			Model: model,
			Route: route.Options{Seed: *seed},
		})
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-28s %10v  tracks=%d  scaled=%.3f\n",
			label, res.Elapsed, res.TotalTracks, res.ScaledTracks(base))
		return res
	}

	tcp := run("tcp sockets (wall clock)", mp.TCP, mp.CostModel{})
	smp := run("simulated SMP (virtual)", mp.Virtual, mp.SMP())
	dmp := run("simulated DMP (virtual)", mp.Virtual, mp.DMP())

	if tcp.TotalTracks != smp.TotalTracks || smp.TotalTracks != dmp.TotalTracks {
		log.Fatalf("engines disagree on routing: %d / %d / %d tracks",
			tcp.TotalTracks, smp.TotalTracks, dmp.TotalTracks)
	}
	fmt.Println("\nall engines produced identical routing; only the clocks differ")
}

package main

import (
	"context"
	"fmt"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/parallel"
	"parroute/internal/partition"
	"parroute/internal/route"
	"parroute/internal/runcfg"
	"parroute/internal/service"
	"parroute/internal/workpool"
)

// Tags of the mp probe's own traffic. They are deliberately not named
// tag…: mpgen records every tag…-named constant of the module in
// mp_protocol.json, whose checksum the TCP hello carries, and a benchmark's
// private ping is not part of the program's wire protocol.
const (
	probePing   = 1
	probePong   = 2
	probeReduce = 3
)

// timed returns the median wall of reps calls of fn, in milliseconds.
func timed(reps int, fn func() error) (float64, error) {
	var walls []float64
	for i := 0; i < reps; i++ {
		start := now()
		if err := fn(); err != nil {
			return 0, err
		}
		walls = append(walls, msSince(start))
	}
	return median(walls), nil
}

// probe is the probe pass of a traced run: direct, timed calls into each
// layer's public functions. Its metrics do not depend on the workload; they
// say what a layer costs on its own, next to the spans that say what it
// cost inside an op.
func probe(ctx context.Context, cfg runConfig, v values) error {
	reps := cfg.sc.probeN
	circuits := map[string]*circuit.Circuit{}
	for i, preset := range []string{cfg.sc.big, cfg.sc.huge, cfg.sc.svc} {
		var err error
		v["gen.generate_ms."+genPresets[i]], err = timed(min(reps, 3), func() error {
			c, err := runcfg.LoadPreset(preset, genSeed)
			circuits[genPresets[i]] = c
			return err
		})
		if err != nil {
			return fmt.Errorf("generating %s: %w", preset, err)
		}
	}
	for _, name := range clonePresets {
		v["circuit.clone_ms."+name], _ = timed(min(reps, 5), func() error {
			circuits[name].Clone()
			return nil
		})
	}

	big := circuits[genPresets[0]]
	opt := route.Options{Seed: cfg.seed}
	rt := route.NewRouter(big.Clone(), opt)
	serial, err := rt.Run(ctx)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}

	if err := probeWorkpool(ctx, cfg, len(big.Nets), v); err != nil {
		return err
	}
	if err := probePartition(big, reps, v); err != nil {
		return err
	}
	for _, algo := range parallel.Algorithms() {
		res, err := parallel.Run(ctx, big, parallel.Options{Algo: algo, Procs: 8, Mode: mp.Virtual, Route: opt})
		if err != nil {
			return fmt.Errorf("%v at P=8: %w", algo, err)
		}
		v["parallel.scaled_tracks_p8."+algo.String()] = res.ScaledTracks(serial)
	}
	for i, mode := range []mp.Mode{mp.Inproc, mp.TCP} {
		if err := probeEngine(ctx, mode, engines[i], len(rt.Grid.DensCounts()), reps, v); err != nil {
			return fmt.Errorf("mp %s: %w", engines[i], err)
		}
	}
	if err := probeCodec(serial.Wires, reps, v); err != nil {
		return err
	}
	return probeEnvelope(ctx, circuits[genPresets[2]], reps, v)
}

// probeWorkpool measures what the fan-out itself costs: workpool.Do over as
// many empty tasks as the circuit has nets, at nproc workers against one.
func probeWorkpool(ctx context.Context, cfg runConfig, tasks int, v values) error {
	empty := func(int, int) error { return nil }
	one, err := timed(2*cfg.sc.probeN, func() error { return workpool.Do(ctx, 1, tasks, empty) })
	if err != nil {
		return err
	}
	many, err := timed(2*cfg.sc.probeN, func() error { return workpool.Do(ctx, cfg.nproc, tasks, empty) })
	if err != nil {
		return err
	}
	v["workpool.do_overhead_us"] = (many - one) * 1000
	return nil
}

func probePartition(c *circuit.Circuit, reps int, v values) error {
	var owner []int
	var err error
	v["partition.assign_ms"], err = timed(reps, func() error {
		blocks, err := partition.RowBlocks(c, parProcs)
		if err != nil {
			return err
		}
		owner, err = partition.Nets(c, blocks, parProcs, partition.Config{Method: partition.PinWeight})
		return err
	})
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	v["partition.pin_imbalance"] = partition.Load(c, owner, parProcs).Imbalance
	return nil
}

// probeEngine measures one real-time engine at P=2: bringing it up for a
// worker that does nothing, a 1 KiB round trip, and an Allreduce over a
// vector as long as the coarse grid's density counters — the payload
// net-wise synchronizes every pass.
func probeEngine(ctx context.Context, mode mp.Mode, name string, vecLen, reps int, v values) error {
	cfg := mp.Config{Procs: parProcs, Mode: mode, Limits: mp.Limits{RecvTimeout: time.Minute, SendTimeout: time.Minute}}
	var err error
	v["mp.engine_start_ms."+name], err = timed(2*reps, func() error {
		_, err := cfg.RunContext(ctx, func(mp.Comm) error { return nil })
		return err
	})
	if err != nil {
		return err
	}
	rounds, reduces := 100*reps, 5*reps
	var pingUS, reduceMS float64
	_, err = cfg.RunContext(ctx, func(c mp.Comm) error {
		peer := 1 - c.Rank()
		payload := make([]int32, 256) // 1 KiB
		if err := c.Barrier(); err != nil {
			return err
		}
		start := now()
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, probePing, payload); err != nil {
					return err
				}
				if _, err := c.Recv(peer, probePong); err != nil {
					return err
				}
			} else {
				got, err := c.Recv(peer, probePing)
				if err != nil {
					return err
				}
				if err := c.Send(peer, probePong, got); err != nil {
					return err
				}
			}
		}
		ping := msSince(start) * 1000 / float64(rounds)
		vec := make([]int32, vecLen)
		if err := c.Barrier(); err != nil {
			return err
		}
		start = now()
		for i := 0; i < reduces; i++ {
			if _, err := mp.AllreduceInt32s(c, probeReduce, vec, mp.SumInt32s); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			pingUS, reduceMS = ping, msSince(start)/float64(reduces)
		}
		return nil
	})
	v["mp.pingpong_us."+name], v["mp.allreduce_ms."+name] = pingUS, reduceMS
	return err
}

// probeCodec measures the generated wire codec on the largest payload a
// run ships: every wire of the routed circuit in one WireBatch.
func probeCodec(wires []metrics.Wire, reps int, v values) error {
	batch := parallel.WireBatch{Wires: wires}
	var buf []byte
	enc, err := timed(reps, func() error {
		var err error
		buf, err = mp.AppendAny(buf[:0], batch)
		return err
	})
	if err != nil {
		return fmt.Errorf("encoding the wire batch: %w", err)
	}
	dec, err := timed(reps, func() error {
		got, rest, err := mp.WireAny(buf)
		if err == nil && (len(rest) != 0 || len(got.(parallel.WireBatch).Wires) != len(wires)) {
			err = fmt.Errorf("decoded %d wires and %d stray bytes from a batch of %d", len(got.(parallel.WireBatch).Wires), len(rest), len(wires))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("decoding the wire batch: %w", err)
	}
	v["mp.wire_bytes"] = float64(len(buf))
	v["mp.encode_ns_per_byte"] = enc * 1e6 / float64(len(buf))
	v["mp.decode_ns_per_byte"] = dec * 1e6 / float64(len(buf))
	return nil
}

// probeEnvelope measures what the daemon does to a routed result besides
// routing it: canonical form, envelope encode, and the client's decode.
func probeEnvelope(ctx context.Context, c *circuit.Circuit, reps int, v values) error {
	run := runcfg.Default() // the serial job the twgrd workloads submit
	opts, err := run.Options()
	if err != nil {
		return err
	}
	res, err := parallel.RunBaseline(ctx, c, opts)
	if err != nil {
		return fmt.Errorf("routing the envelope payload: %w", err)
	}
	var canon, wire []byte
	v["service.canonical_ms"], err = timed(reps, func() error {
		cp := *res // CanonicalResult zeroes the clock fields of its argument
		var err error
		canon, err = service.CanonicalResult(&cp)
		return err
	})
	if err != nil {
		return err
	}
	v["service.envelope_encode_ms"], err = timed(reps, func() error {
		var err error
		wire, err = service.Encode(service.KindResult, service.JobResult{Key: "probe", Metrics: canon})
		return err
	})
	if err != nil {
		return err
	}
	v["service.envelope_decode_ms"], err = timed(reps, func() error {
		env, err := service.Decode(wire)
		if err != nil {
			return err
		}
		var jr service.JobResult
		return env.DecodeBody(service.KindResult, &jr)
	})
	v["service.response_kb"] = float64(len(wire)+1) / 1024 // the handler appends a newline
	return err
}

package mp

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// testRecvTimeout bounds every Recv of an allModes run on the real-time
// engines: far longer than any healthy wait, it turns a protocol fault
// (a rank skipping a collective, a receive nobody sends to) into that
// subtest's ErrDeadline instead of a hang to go test's package timeout
// that leaves every later test unrun.
const testRecvTimeout = 30 * time.Second

// allModes runs a subtest under each engine a single Config selects.
func allModes(t *testing.T, name string, f func(t *testing.T, cfg Config)) {
	t.Helper()
	for _, mode := range []Mode{Virtual, Inproc, TCP} {
		t.Run(name+"/"+mode.String(), func(t *testing.T) {
			f(t, Config{Mode: mode, Limits: Limits{RecvTimeout: testRecvTimeout}})
		})
	}
}

// runner executes fn on procs ranks of one engine and returns the first
// error in rank order.
type runner func(procs int, fn func(Comm) error) error

// allEngines is allModes plus a net row, for the contract tests whose
// semantics every engine shares: the multi-process mesh runs as procs
// goroutines, one NetConfig each, standing in for procs OS processes (see
// runMesh).
func allEngines(t *testing.T, name string, f func(t *testing.T, run runner)) {
	t.Helper()
	allModes(t, name, func(t *testing.T, cfg Config) {
		f(t, func(procs int, fn func(Comm) error) error {
			cfg.Procs = procs
			_, err := cfg.Run(fn)
			return err
		})
	})
	t.Run(name+"/net", func(t *testing.T) {
		f(t, func(procs int, fn func(Comm) error) error {
			return firstErr(runMesh(t, procs, Config{}, fn))
		})
	})
}

func TestRingPassing(t *testing.T) {
	allEngines(t, "ring", func(t *testing.T, run runner) {
		err := run(4, func(c Comm) error {
			// Pass an accumulating token around the ring twice.
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			if c.Rank() == 0 {
				if err := c.Send(next, 1, 1); err != nil {
					return err
				}
			}
			for round := 0; round < 2; round++ {
				got, err := c.Recv(prev, 1)
				if err != nil {
					return err
				}
				v := got.(int)
				if c.Rank() == 0 && round == 1 {
					if v != 2*c.Size() {
						return fmt.Errorf("token = %d, want %d", v, 2*c.Size())
					}
					return nil
				}
				if err := c.Send(next, 1, v+1); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestSendRecvOrdering(t *testing.T) {
	allEngines(t, "order", func(t *testing.T, run runner) {
		err := run(2, func(c Comm) error {
			const n = 50
			if c.Rank() == 0 {
				for i := 0; i < n; i++ {
					if err := c.Send(1, 7, i); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < n; i++ {
				got, err := c.Recv(0, 7)
				if err != nil {
					return err
				}
				if got.(int) != i {
					return fmt.Errorf("message %d arrived as %d: FIFO violated", i, got)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestTagsKeepStreamsApart(t *testing.T) {
	allEngines(t, "tags", func(t *testing.T, run runner) {
		err := run(2, func(c Comm) error {
			if c.Rank() == 0 {
				if err := c.Send(1, 10, 10); err != nil {
					return err
				}
				return c.Send(1, 20, 20)
			}
			// Receive in the opposite order of sending.
			got20, err := c.Recv(0, 20)
			if err != nil {
				return err
			}
			got10, err := c.Recv(0, 10)
			if err != nil {
				return err
			}
			if got20.(int) != 20 || got10.(int) != 10 {
				return fmt.Errorf("tag demux broken: got %v/%v", got20, got10)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBarrierSeparatesPhases(t *testing.T) {
	allEngines(t, "barrier", func(t *testing.T, run runner) {
		// Every rank contributes to a gather, barriers, then gathers
		// again; mismatched phases would deliver phase-2 values to the
		// phase-1 gather on some engine if barriers were broken.
		err := run(5, func(c Comm) error {
			for phase := 0; phase < 3; phase++ {
				vs, err := Allgather(c, 30+phase, c.Rank()*10+phase)
				if err != nil {
					return err
				}
				for r, v := range vs {
					if v != r*10+phase {
						return fmt.Errorf("phase %d: rank %d contributed %v", phase, r, v)
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestCollectives(t *testing.T) {
	allEngines(t, "collectives", func(t *testing.T, run runner) {
		err := run(4, func(c Comm) error {
			// Allgather of a value only one rank knows: what Bcast was for.
			vs, err := Allgather(c, 1, c.Rank()*77)
			if err != nil {
				return err
			}
			if got := vs[2]; got != 2*77 {
				return fmt.Errorf("allgather[2] = %v", got)
			}
			// Gather.
			vs, err = Gather(c, 1, 2, c.Rank()*c.Rank())
			if err != nil {
				return err
			}
			if c.Rank() == 1 {
				for r, v := range vs {
					if v != r*r {
						return fmt.Errorf("gather[%d] = %v", r, v)
					}
				}
			} else if vs != nil {
				return fmt.Errorf("non-root gather returned %v", vs)
			}
			// AllreduceInt32s (sum).
			mine := []int32{int32(c.Rank()), 1, int32(-c.Rank())}
			sum, err := AllreduceInt32s(c, 3, mine, SumInt32s)
			if err != nil {
				return err
			}
			want := []int32{0 + 1 + 2 + 3, 4, -(0 + 1 + 2 + 3)}
			for i := range want {
				if sum[i] != want[i] {
					return fmt.Errorf("allreduce[%d] = %d, want %d", i, sum[i], want[i])
				}
			}
			// Input must not be modified.
			if mine[0] != int32(c.Rank()) {
				return fmt.Errorf("allreduce mutated its input")
			}
			// AllreduceInt max.
			mx, err := AllreduceInt(c, 4, c.Rank()*7, MaxInt)
			if err != nil {
				return err
			}
			if mx != 21 {
				return fmt.Errorf("allreduce max = %d", mx)
			}
			// Alltoall: rank r sends r*10+dest to dest.
			out := make([]int, c.Size())
			for r := range out {
				out[r] = c.Rank()*10 + r
			}
			in, err := Alltoall(c, 5, out)
			if err != nil {
				return err
			}
			for r, v := range in {
				if v != r*10+c.Rank() {
					return fmt.Errorf("alltoall from %d = %v", r, v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestWorkerErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	allModes(t, "error", func(t *testing.T, cfg Config) {
		cfg.Procs = 3
		_, err := cfg.Run(func(c Comm) error {
			if c.Rank() == 1 {
				return boom
			}
			// Other ranks block forever on a message rank 1 never sends;
			// the abort must release them.
			_, err := c.Recv(1, 9)
			return err
		})
		if err == nil {
			t.Fatal("expected error, got nil")
		}
		if !errors.Is(err, boom) && !strings.Contains(err.Error(), "rank 1 failed") {
			t.Fatalf("unexpected error: %v", err)
		}
	})
}

func TestVirtualDeadlockDetected(t *testing.T) {
	cfg := Config{Procs: 2, Mode: Virtual}
	_, err := cfg.Run(func(c Comm) error {
		// Both ranks receive first: classic deadlock.
		_, err := c.Recv(1-c.Rank(), 1)
		if err != nil {
			return err
		}
		return c.Send(1-c.Rank(), 1, 0)
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
}

func TestVirtualBarrierAfterExitIsDeadlock(t *testing.T) {
	cfg := Config{Procs: 2, Mode: Virtual}
	_, err := cfg.Run(func(c Comm) error {
		if c.Rank() == 0 {
			return nil // exits immediately
		}
		return c.Barrier()
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
}

func TestVirtualSingleRank(t *testing.T) {
	cfg := Config{Procs: 1, Mode: Virtual}
	elapsed, err := cfg.Run(func(c Comm) error {
		if c.Size() != 1 || c.Rank() != 0 {
			return fmt.Errorf("rank/size = %d/%d", c.Rank(), c.Size())
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Self-send works.
		if err := c.Send(0, 3, 42); err != nil {
			return err
		}
		got, err := c.Recv(0, 3)
		if err != nil {
			return err
		}
		if got.(int) != 42 {
			return fmt.Errorf("self message = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < 0 {
		t.Fatalf("negative simulated time %v", elapsed)
	}
}

func TestVirtualClockAdvancesWithCompute(t *testing.T) {
	cfg := Config{Procs: 2, Mode: Virtual}
	elapsed, err := cfg.Run(func(c Comm) error {
		if c.Rank() == 0 {
			// Busy-work long enough to dominate all comm costs.
			deadline := time.Now().Add(20 * time.Millisecond)
			x := 0
			for time.Now().Before(deadline) {
				x++
			}
			_ = x
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < 20*time.Millisecond {
		t.Fatalf("simulated time %v should include rank 0's 20ms compute span", elapsed)
	}
}

func TestVirtualMessageCostModel(t *testing.T) {
	// With a pure-latency model, a ping-pong of n rounds must cost at
	// least n*latency of simulated time even though compute is ~0.
	model := CostModel{
		Name:    "latency-only",
		Latency: time.Millisecond,
	}
	const rounds = 10
	cfg := Config{Procs: 2, Mode: Virtual, Model: model}
	elapsed, err := cfg.Run(func(c Comm) error {
		other := 1 - c.Rank()
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				if err := c.Send(other, 1, i); err != nil {
					return err
				}
				if _, err := c.Recv(other, 1); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(other, 1); err != nil {
					return err
				}
				if err := c.Send(other, 1, i); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * rounds * time.Millisecond; elapsed < want {
		t.Fatalf("simulated ping-pong time %v, want at least %v", elapsed, want)
	}
}

func TestVirtualBandwidthCharged(t *testing.T) {
	// A message priced at s bytes at 1 MB/s must cost at least s
	// microseconds of simulated time.
	model := CostModel{Name: "slow", BytesPerSecond: 1e6}
	cfg := Config{Procs: 2, Mode: Virtual, Model: model}
	payload := make([]int32, 1<<18)
	size := payloadSize(payload)
	if size < 1<<17 {
		t.Fatalf("encoded size %d implausibly small for %d elements", size, len(payload))
	}
	want := time.Duration(float64(size) / 1e6 * float64(time.Second))
	elapsed, err := cfg.Run(func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, payload)
		}
		_, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < want {
		t.Fatalf("%d bytes at 1MB/s simulated as %v, want >= %v", size, elapsed, want)
	}
	if elapsed > 100*want {
		t.Fatalf("simulated time %v implausibly large (want about %v)", elapsed, want)
	}
}

func TestDMPSlowerThanSMP(t *testing.T) {
	run := func(model CostModel) time.Duration {
		cfg := Config{Procs: 4, Mode: Virtual, Model: model}
		elapsed, err := cfg.Run(func(c Comm) error {
			for i := 0; i < 20; i++ {
				if _, err := Allgather(c, i, []int32{1, 2, 3}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	smp := run(SMP())
	dmp := run(DMP())
	if dmp <= smp {
		t.Fatalf("DMP (%v) should simulate slower than SMP (%v) for the same traffic", dmp, smp)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := (Config{Procs: 0}).Run(func(Comm) error { return nil }); err == nil {
		t.Fatal("Procs=0 accepted")
	}
	if _, err := (Config{Procs: -3}).Run(func(Comm) error { return nil }); err == nil {
		t.Fatal("negative Procs accepted")
	}
	if _, err := (Config{Procs: 1, Mode: Mode(99)}).Run(func(Comm) error { return nil }); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestInvalidRanksRejected(t *testing.T) {
	allModes(t, "badrank", func(t *testing.T, cfg Config) {
		cfg.Procs = 2
		_, err := cfg.Run(func(c Comm) error {
			if err := c.Send(5, 1, 0); err == nil {
				return fmt.Errorf("send to rank 5 of 2 accepted")
			}
			if _, err := c.Recv(-1, 1); err == nil {
				return fmt.Errorf("recv from rank -1 accepted")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestPayloadSizeGrowsWithContent(t *testing.T) {
	small := payloadSize([]int32{1})
	big := payloadSize(make([]int32, 10000))
	if big <= small {
		t.Fatalf("payloadSize(10000 ints)=%d not larger than payloadSize(1 int)=%d", big, small)
	}
}

func TestVirtualElapsedIsMaxOverWorkers(t *testing.T) {
	// Rank 1 computes 3x longer; elapsed must reflect the slowest rank
	// even without any synchronization.
	cfg := Config{Procs: 2, Mode: Virtual}
	elapsed, err := cfg.Run(func(c Comm) error {
		d := 5 * time.Millisecond
		if c.Rank() == 1 {
			d = 15 * time.Millisecond
		}
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < 15*time.Millisecond {
		t.Fatalf("elapsed %v < slowest worker's 15ms", elapsed)
	}
}

func TestCostModelTransfer(t *testing.T) {
	m := CostModel{Latency: 100, BytesPerSecond: 0}
	if m.transfer(1000) != 100 {
		t.Fatal("zero bandwidth should cost latency only")
	}
	m = CostModel{Latency: 0, BytesPerSecond: 1e9}
	if d := m.transfer(1e9); d != time.Second {
		t.Fatalf("1GB at 1GB/s = %v, want 1s", d)
	}
	// DMP must price every component at or above SMP.
	smp, dmp := SMP(), DMP()
	if dmp.Latency <= smp.Latency || dmp.BytesPerSecond >= smp.BytesPerSecond ||
		dmp.SendOverhead <= smp.SendOverhead || dmp.BarrierBase <= smp.BarrierBase {
		t.Fatal("DMP model should be uniformly more expensive than SMP")
	}
}

func TestModeString(t *testing.T) {
	if Virtual.String() != "virtual" || Inproc.String() != "inproc" || TCP.String() != "tcp" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should format")
	}
}

func TestVirtualSelfSendOrdering(t *testing.T) {
	cfg := Config{Procs: 1, Mode: Virtual}
	_, err := cfg.Run(func(c Comm) error {
		for i := 0; i < 10; i++ {
			if err := c.Send(0, 4, i); err != nil {
				return err
			}
		}
		for i := 0; i < 10; i++ {
			got, err := c.Recv(0, 4)
			if err != nil {
				return err
			}
			if got.(int) != i {
				return fmt.Errorf("self-send order broken at %d: %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

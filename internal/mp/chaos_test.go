package mp

// Unit tests for the chaos fault-injection engine: plan parsing,
// transparent delivery under delays on every engine, deterministic event
// logs, and a delay that outlasts a real receive deadline. Crash plans and
// deadline behavior are exercised in crash_test.go.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"parroute/internal/metrics"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("delay=0.10,delayby=50us,crash=1@25,crash=3@7")
	if err != nil {
		t.Fatal(err)
	}
	if p.Delay != 0.10 || p.DelayBy != 50*time.Microsecond ||
		len(p.Crash) != 2 || p.Crash[1] != 25 || p.Crash[3] != 7 {
		t.Fatalf("parsed %+v", p)
	}
	// String renders ParsePlan syntax; round-trip must reproduce the plan.
	back, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("round-trip of %q: %v", p.String(), err)
	}
	if fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", p) {
		t.Fatalf("round-trip %+v != %+v", back, p)
	}

	if p, err := ParsePlan("  "); err != nil || p.String() != "" {
		t.Fatalf("blank plan: got %+v, %v", p, err)
	}
	for _, bad := range []string{
		"delay", "delay=x", "bogus=1", "delay=1.5", "delay=-0.1", "delayby=-1ms",
		"crash=1", "crash=a@2", "crash=1@0", "crash=-1@5",
		// Loss, duplication and reordering are not plan faults: every
		// engine delivers reliably and in order.
		"drop=0.1", "dup=0.1", "reorder=0.1", "retries=3",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// tortureBody exchanges rounds numbered messages between every rank pair
// on two tags and fails if any stream arrives out of order or corrupted —
// the engines' reliable in-order delivery, checked from inside the run.
func tortureBody(rounds int) func(Comm) error {
	return func(c Comm) error {
		const tagA, tagB = 5, 6
		for i := 0; i < rounds; i++ {
			for r := 0; r < c.Size(); r++ {
				if r == c.Rank() {
					continue
				}
				if err := c.Send(r, tagA, c.Rank()*1000+i); err != nil {
					return err
				}
				if err := c.Send(r, tagB, c.Rank()*1000000+i); err != nil {
					return err
				}
			}
		}
		for r := 0; r < c.Size(); r++ {
			if r == c.Rank() {
				continue
			}
			for i := 0; i < rounds; i++ {
				got, err := c.Recv(r, tagA)
				if err != nil {
					return err
				}
				if got != r*1000+i {
					return fmt.Errorf("tagA from %d message %d: got %v", r, i, got)
				}
				got, err = c.Recv(r, tagB)
				if err != nil {
					return err
				}
				if got != r*1000000+i {
					return fmt.Errorf("tagB from %d message %d: got %v", r, i, got)
				}
			}
		}
		return c.Barrier()
	}
}

func TestChaosTransparentDelivery(t *testing.T) {
	plan := Plan{Seed: 11, Delay: 0.3, DelayBy: time.Microsecond}
	allModes(t, "torture", func(t *testing.T, cfg Config) {
		cfg.Procs = 3
		cfg.Chaos = &plan
		eng, err := cfg.Engine()
		if err != nil {
			t.Fatal(err)
		}
		ce := eng.(*ChaosEngine)
		if _, err := ce.Run(context.Background(), cfg.Procs, tortureBody(20)); err != nil {
			t.Fatal(err)
		}
		// 240 sends at this rate make a zero delay count statistically
		// impossible.
		if s := ce.Snapshot(); s.Sends != 240 || s.Delays == 0 || s.Crashes != 0 || s.DeadlineMisses != 0 {
			t.Errorf("fault tally %v, want 240 sends, some delayed, nothing else", s)
		}
	})
}

func TestChaosZeroPlanIsTransparent(t *testing.T) {
	plan := Plan{Seed: 1}
	allModes(t, "zero-plan", func(t *testing.T, cfg Config) {
		cfg.Procs = 3
		cfg.Chaos = &plan
		eng, err := cfg.Engine()
		if err != nil {
			t.Fatal(err)
		}
		ce := eng.(*ChaosEngine)
		if _, err := ce.Run(context.Background(), cfg.Procs, tortureBody(5)); err != nil {
			t.Fatal(err)
		}
		if s := ce.Snapshot(); s != (metrics.FaultReport{Sends: s.Sends}) {
			t.Errorf("zero plan injected faults: %v", s)
		}
	})
}

// TestChaosEventLogReproducible is the byte-reproducibility contract: the
// same plan and seed yield the identical event log on every engine, run
// after run, because fault decisions depend only on each sender's program
// order — never on scheduling.
func TestChaosEventLogReproducible(t *testing.T) {
	run := func(t *testing.T, cfg Config, seed uint64) string {
		plan := Plan{Seed: seed, Delay: 0.3, DelayBy: time.Microsecond}
		cfg.Chaos = &plan
		eng, err := cfg.Engine()
		if err != nil {
			t.Fatal(err)
		}
		ce := eng.(*ChaosEngine)
		if _, err := ce.Run(context.Background(), cfg.Procs, tortureBody(12)); err != nil {
			t.Fatal(err)
		}
		return strings.Join(ce.EventLog(), "\n")
	}
	var logs []string
	allModes(t, "event-log", func(t *testing.T, cfg Config) {
		cfg.Procs = 3
		first := run(t, cfg, 42)
		if first == "" {
			t.Fatal("empty event log from a faulty run")
		}
		if again := run(t, cfg, 42); again != first {
			t.Fatal("same seed, same engine: event logs differ")
		}
		if other := run(t, cfg, 43); other == first {
			t.Fatal("different seed reproduced the identical event log")
		}
		logs = append(logs, first)
	})
	for i := 1; i < len(logs); i++ {
		if logs[i] != logs[0] {
			t.Errorf("engine %d produced a different event log than engine 0 for the same plan", i)
		}
	}
}

// TestChaosDelayPastRecvDeadline is the one bounded failure a plan can
// cause: a send stalled longer than the receiver's Limits.RecvTimeout
// fails the run with ErrDeadline, and the transport counts the miss in
// the chaos tally.
func TestChaosDelayPastRecvDeadline(t *testing.T) {
	plan := Plan{Seed: 3, Delay: 1, DelayBy: 100 * time.Millisecond}
	cfg := Config{Procs: 2, Mode: Inproc, Limits: Limits{RecvTimeout: 10 * time.Millisecond}, Chaos: &plan}
	eng, err := cfg.Engine()
	if err != nil {
		t.Fatal(err)
	}
	ce := eng.(*ChaosEngine)
	_, err = ce.Run(context.Background(), cfg.Procs, func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, 99)
		}
		_, err := c.Recv(0, 1)
		return err
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("delay past the recv deadline: want ErrDeadline, got %v", err)
	}
	if s := ce.Snapshot(); s.Delays != 1 || s.DeadlineMisses != 1 {
		t.Errorf("fault tally %v, want one delay and one deadline miss", s)
	}
}

func TestChaosReservedTagRejected(t *testing.T) {
	plan := Plan{Seed: 1}
	cfg := Config{Procs: 2, Mode: Virtual, Chaos: &plan}
	_, err := cfg.Run(func(c Comm) error {
		if err := c.Send((c.Rank()+1)%2, -7, 0); err != nil {
			return err
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("negative user tag accepted under chaos: %v", err)
	}
}

// TestChaosCollectivesSurviveFaults runs the collective suite the routing
// algorithms actually use through a delaying wrapper.
func TestChaosCollectivesSurviveFaults(t *testing.T) {
	plan := Plan{Seed: 77, Delay: 0.3, DelayBy: time.Microsecond}
	allModes(t, "collectives", func(t *testing.T, cfg Config) {
		cfg.Procs = 4
		cfg.Chaos = &plan
		_, err := cfg.Run(func(c Comm) error {
			sum, err := AllreduceInt(c, 3, c.Rank()+1, SumInt)
			if err != nil {
				return err
			}
			if sum != 10 {
				return fmt.Errorf("allreduce sum %d, want 10", sum)
			}
			vs := make([]int, c.Size())
			for i := range vs {
				vs[i] = c.Rank()*10 + i
			}
			got, err := Alltoall(c, 4, vs)
			if err != nil {
				return err
			}
			for r, v := range got {
				if v != r*10+c.Rank() {
					return fmt.Errorf("alltoall from %d: got %v", r, v)
				}
			}
			red, err := AllreduceInt32s(c, 5, []int32{int32(c.Rank()), 1}, SumInt32s)
			if err != nil {
				return err
			}
			if red[0] != 6 || red[1] != 4 {
				return fmt.Errorf("allreduce32: got %v", red)
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

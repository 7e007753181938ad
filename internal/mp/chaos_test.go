package mp

// Unit tests for the chaos fault-injection engine: plan parsing, backoff
// shaping, transparent delivery under every fault class on every engine,
// deterministic event logs, and retry-budget exhaustion. Crash plans and
// deadline behavior are exercised in crash_test.go.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"parroute/internal/metrics"
	"parroute/internal/rng"
)

// fastPlan keeps injected waiting times tiny so heavy-fault tests stay
// fast under -race.
func fastPlan(p Plan) Plan {
	p.DelayBy = time.Microsecond
	p.RetryBase = time.Microsecond
	p.RetryCap = 10 * time.Microsecond
	return p
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("drop=0.05,delay=0.10,dup=0.02,reorder=0.01,delayby=50us,retries=3,backoff=10us,cap=1ms,crash=1@25,crash=3@7")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		Drop: 0.05, Delay: 0.10, Dup: 0.02, Reorder: 0.01,
		DelayBy: 50 * time.Microsecond, MaxRetries: 3,
		RetryBase: 10 * time.Microsecond, RetryCap: time.Millisecond,
		Crash: map[int]int{1: 25, 3: 7},
	}
	if p.Drop != want.Drop || p.Delay != want.Delay || p.Dup != want.Dup || p.Reorder != want.Reorder ||
		p.DelayBy != want.DelayBy || p.MaxRetries != want.MaxRetries ||
		p.RetryBase != want.RetryBase || p.RetryCap != want.RetryCap ||
		len(p.Crash) != 2 || p.Crash[1] != 25 || p.Crash[3] != 7 {
		t.Fatalf("parsed %+v, want %+v", p, want)
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
		"drop", "drop=x", "bogus=1", "drop=1.5", "drop=0.7,delay=0.7",
		"crash=1", "crash=a@2", "crash=1@0", "crash=-1@5", "retries=-2",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestBackoffBoundedAndDeterministic(t *testing.T) {
	base, cap := 10*time.Microsecond, 80*time.Microsecond
	a, b := rng.New(9), rng.New(9)
	for attempt := 0; attempt < 8; attempt++ {
		d := backoff(a, base, cap, attempt)
		// Exponential with equal jitter: [ceil/2, ceil] where ceil caps out.
		ceil := base << attempt
		if ceil > cap {
			ceil = cap
		}
		if d < ceil/2 || d > ceil {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, ceil/2, ceil)
		}
		if d2 := backoff(b, base, cap, attempt); d2 != d {
			t.Errorf("attempt %d: same rng state gave %v then %v", attempt, d, d2)
		}
	}
	if d := backoff(rng.New(1), 0, cap, 3); d != 0 {
		t.Errorf("zero base: got %v, want 0", d)
	}
}

// tortureBody exchanges rounds numbered messages between every rank pair
// on two tags and fails if any stream arrives out of order or corrupted —
// the effectively-once delivery guarantee, checked from inside the run.
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
	plan := fastPlan(Plan{Seed: 11, Drop: 0.15, Delay: 0.10, Dup: 0.15, Reorder: 0.15})
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
		s := ce.Snapshot()
		// 240 sends at these rates make a zero count in any class
		// statistically impossible; all fault paths must have fired.
		if s.Sends == 0 || s.Drops == 0 || s.Delays == 0 || s.Dups == 0 ||
			s.Reorders == 0 || s.Retries == 0 || s.Dedups == 0 {
			t.Errorf("fault classes missing from run: %v", s)
		}
		if s.Crashes != 0 || s.DeadlineMisses != 0 {
			t.Errorf("unplanned faults: %v", s)
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
		plan := fastPlan(Plan{Seed: seed, Drop: 0.15, Delay: 0.05, Dup: 0.15, Reorder: 0.15})
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

func TestChaosRetryBudgetExhausted(t *testing.T) {
	plan := fastPlan(Plan{Seed: 3, Drop: 1.0})
	plan.MaxRetries = 4
	cfg := Config{Procs: 2, Mode: Virtual, Chaos: &plan}
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
		t.Fatalf("drop=1: want ErrDeadline, got %v", err)
	}
	s := ce.Snapshot()
	if want := int64(plan.MaxRetries + 1); s.Drops != want || s.Retries != int64(plan.MaxRetries) {
		t.Errorf("drops=%d retries=%d, want %d and %d", s.Drops, s.Retries, want, plan.MaxRetries)
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
// algorithms actually use through a faulty wrapper.
func TestChaosCollectivesSurviveFaults(t *testing.T) {
	plan := fastPlan(Plan{Seed: 77, Drop: 0.10, Delay: 0.05, Dup: 0.10, Reorder: 0.10})
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

package mp

// Crash and deadline tests: a rank killed mid-phase must surface as a
// clean ErrRankLost on every surviving rank within the watchdog deadline,
// leak no goroutines, and survive repeated teardown (no double-Close
// panics). Deadlines must turn silent hangs into ErrDeadline.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// requireGoroutinesSettle fails the test if the live goroutine count does
// not come back down to the baseline (plus a small allowance for runtime
// bookkeeping) shortly after a run — the goleak-style leak check.
func requireGoroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// crashBody is a mesh exchange that keeps all ranks talking until the
// planned crash lands; survivors must come back with an error rather
// than hang.
func crashBody(rounds int) func(Comm) error {
	return func(c Comm) error {
		const tag = 9
		for i := 0; i < rounds; i++ {
			for r := 0; r < c.Size(); r++ {
				if r == c.Rank() {
					continue
				}
				if err := c.Send(r, tag, i); err != nil {
					return err
				}
			}
			for r := 0; r < c.Size(); r++ {
				if r == c.Rank() {
					continue
				}
				if _, err := c.Recv(r, tag); err != nil {
					return err
				}
			}
		}
		return c.Barrier()
	}
}

// runCrashOnce executes one crash scenario under a watchdog and returns
// the per-rank worker errors.
func runCrashOnce(t *testing.T, cfg Config, procs, crashRank, crashAt int) []error {
	t.Helper()
	plan := Plan{Seed: 5, Crash: map[int]int{crashRank: crashAt}}
	cfg.Procs = procs
	cfg.Chaos = &plan
	eng, err := cfg.Engine()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	errs := make([]error, procs)
	body := crashBody(50)
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), procs, func(c Comm) error {
			err := body(c)
			mu.Lock()
			errs[c.Rank()] = err
			mu.Unlock()
			return err
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRankLost) {
			t.Fatalf("run error: want ErrRankLost, got %v", err)
		}
	case <-time.After(protocolWatchdog):
		t.Fatalf("watchdog: crash of rank %d did not resolve within %v", crashRank, protocolWatchdog)
	}
	return errs
}

// TestCrashSurvivorsSeeRankLost kills one rank mid-mesh on each engine
// and asserts every rank — the dead one and all survivors — returns an
// ErrRankLost-wrapped error within the watchdog deadline, twice in a row
// (the second run doubles as a no-double-Close regression: teardown after
// an injected crash closes already-closed connections).
func TestCrashSurvivorsSeeRankLost(t *testing.T) {
	allModes(t, "crash", func(t *testing.T, cfg Config) {
		baseline := runtime.NumGoroutine()
		for run := 0; run < 2; run++ {
			errs := runCrashOnce(t, cfg, 4, 1, 7)
			for rank, err := range errs {
				if err == nil {
					// A rank may finish its last round before the abort
					// lands only if it never needed the dead rank again;
					// with a full mesh every round, that cannot happen.
					t.Errorf("run %d: rank %d returned nil, want ErrRankLost", run, rank)
					continue
				}
				if !errors.Is(err, ErrRankLost) {
					t.Errorf("run %d: rank %d: %v does not wrap ErrRankLost", run, rank, err)
				}
			}
		}
		requireGoroutinesSettle(t, baseline)
	})
}

// TestCrashTCPWatchdogDeadline is the sharpened TCP-specific variant: the
// survivors must detect the loss through socket teardown (not just the
// shared abort flag) and the engine must shut down all reader pumps.
func TestCrashTCPWatchdogDeadline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	start := time.Now()
	errs := runCrashOnce(t, Config{Mode: TCP}, 4, 2, 11)
	if waited := time.Since(start); waited > protocolWatchdog/2 {
		t.Errorf("crash took %v to resolve, too close to the %v watchdog", waited, protocolWatchdog)
	}
	for rank, err := range errs {
		if !errors.Is(err, ErrRankLost) {
			t.Errorf("rank %d: %v does not wrap ErrRankLost", rank, err)
		}
	}
	requireGoroutinesSettle(t, baseline)
}

// TestCrashFirstSend covers the degenerate schedule: the rank dies before
// sending anything at all.
func TestCrashFirstSend(t *testing.T) {
	allModes(t, "crash-first", func(t *testing.T, cfg Config) {
		errs := runCrashOnce(t, cfg, 3, 0, 1)
		if !errors.Is(errs[0], ErrRankLost) {
			t.Errorf("crashed rank: %v does not wrap ErrRankLost", errs[0])
		}
	})
}

// TestRecvDeadline asserts a receive that can never be satisfied fails
// with ErrDeadline after Limits.RecvTimeout instead of hanging, and that
// the miss is counted.
func TestRecvDeadline(t *testing.T) {
	for _, mode := range []Mode{Inproc, TCP} {
		t.Run(mode.String(), func(t *testing.T) {
			var counters FaultCounters
			cfg := Config{
				Procs: 2, Mode: mode,
				Limits: Limits{RecvTimeout: 50 * time.Millisecond, Counters: &counters},
			}
			done := make(chan error, 1)
			go func() {
				_, err := cfg.Run(func(c Comm) error {
					if c.Rank() == 0 {
						return nil // never sends
					}
					_, err := c.Recv(0, 1)
					return err
				})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrDeadline) {
					t.Fatalf("want ErrDeadline, got %v", err)
				}
			case <-time.After(protocolWatchdog):
				t.Fatal("recv deadline never fired")
			}
			if got := counters.DeadlineMisses.Load(); got != 1 {
				t.Fatalf("deadline misses = %d, want 1", got)
			}
		})
	}
}

// TestBarrierDeadline: a barrier is message traffic on every real-time
// engine, so a rank that returned without entering it trips the others'
// RecvTimeout instead of parking them forever (the in-process barrier used
// to be a condition variable with no deadline).
func TestBarrierDeadline(t *testing.T) {
	for _, mode := range []Mode{Inproc, TCP} {
		t.Run(mode.String(), func(t *testing.T) {
			var counters FaultCounters
			cfg := Config{
				Procs: 2, Mode: mode,
				Limits: Limits{RecvTimeout: 50 * time.Millisecond, Counters: &counters},
			}
			err := runWithWatchdog(t, cfg, func(c Comm) error {
				if c.Rank() == 0 {
					return nil // never enters the barrier
				}
				return c.Barrier()
			})
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("want ErrDeadline, got %v", err)
			}
			if got := counters.DeadlineMisses.Load(); got != 1 {
				t.Fatalf("deadline misses = %d, want 1", got)
			}
		})
	}
}

// TestRecvDeadlineNotHitWhenTrafficFlows guards against false positives:
// a generous deadline must not interfere with a normal exchange.
func TestRecvDeadlineNotHitWhenTrafficFlows(t *testing.T) {
	for _, mode := range []Mode{Inproc, TCP} {
		t.Run(mode.String(), func(t *testing.T) {
			var counters FaultCounters
			cfg := Config{
				Procs: 3, Mode: mode,
				Limits: Limits{RecvTimeout: 5 * time.Second, SendTimeout: 5 * time.Second, Counters: &counters},
			}
			if _, err := cfg.Run(tortureBody(10)); err != nil {
				t.Fatal(err)
			}
			if got := counters.DeadlineMisses.Load(); got != 0 {
				t.Fatalf("deadline misses = %d, want 0", got)
			}
		})
	}
}

// TestCrashEventLogIncludesNote pins the crash to the event log on the
// deterministic engine: re-running the same crash plan reproduces the
// whole log byte for byte — the crash record, everything the crashed rank
// did before it, and how far every survivor got (the virtual machine lets
// survivors run until none can move before it reports the loss).
func TestCrashEventLogIncludesNote(t *testing.T) {
	const crashRank, crashAt = 1, 4
	note := fmt.Sprintf("crash rank=%d at-send=%d", crashRank, crashAt)
	run := func() []string {
		plan := Plan{Seed: 21, Crash: map[int]int{crashRank: crashAt}}
		cfg := Config{Procs: 3, Mode: Virtual, Chaos: &plan}
		eng, err := cfg.Engine()
		if err != nil {
			t.Fatal(err)
		}
		ce := eng.(*ChaosEngine)
		if _, err := ce.Run(context.Background(), cfg.Procs, crashBody(20)); !errors.Is(err, ErrRankLost) {
			t.Fatalf("want ErrRankLost, got %v", err)
		}
		log := ce.EventLog()
		if !slices.Contains(log, note) {
			t.Fatalf("crash note missing from event log (%d lines)", len(log))
		}
		return log
	}
	first, second := run(), run()
	if !slices.Equal(first, second) {
		t.Fatalf("crash event log not reproducible on the virtual engine:\n%s\n---\n%s",
			strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
	sent, n := fmt.Sprintf("send %d->", crashRank), 0
	for _, l := range first {
		if strings.HasPrefix(l, sent) {
			n++
		}
	}
	if n != crashAt-1 {
		t.Fatalf("crashed rank logged %d sends before dying at send %d", n, crashAt)
	}
}

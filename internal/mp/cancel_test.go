package mp

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestRunContextCancelUnblocksEveryEngine: cancelling the context aborts
// a run whose workers would otherwise spin forever, on every engine, with
// an error wrapping context.Canceled and no leaked goroutines.
func TestRunContextCancelUnblocksEveryEngine(t *testing.T) {
	allModes(t, "cancel", func(t *testing.T, cfg Config) {
		baseline := runtime.NumGoroutine()
		cfg.Procs = 3
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()

		done := make(chan error, 1)
		go func() {
			_, err := cfg.RunContext(ctx, func(c Comm) error {
				for {
					// Endless barrier rounds: the workers make progress
					// forever (no deadlock detector can fire) until the
					// cancellation reaches them mid-collective.
					if err := c.Barrier(); err != nil {
						return err
					}
				}
			})
			done <- err
		}()

		time.Sleep(20 * time.Millisecond) // let the ranks get into the loop
		cancel()

		select {
		case err := <-done:
			if err == nil {
				t.Fatal("cancelled run returned nil error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
		case <-time.After(protocolWatchdog):
			t.Fatalf("watchdog: cancellation did not unblock the run within %v", protocolWatchdog)
		}
		requireGoroutinesSettle(t, baseline)
	})
}

// TestRunContextDeadlineExceeded: an expiring deadline surfaces as
// context.DeadlineExceeded through the same abort path.
func TestRunContextDeadlineExceeded(t *testing.T) {
	allModes(t, "deadline", func(t *testing.T, cfg Config) {
		baseline := runtime.NumGoroutine()
		cfg.Procs = 2
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()

		done := make(chan error, 1)
		go func() {
			_, err := cfg.RunContext(ctx, func(c Comm) error {
				for {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
			})
			done <- err
		}()

		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
			}
		case <-time.After(protocolWatchdog):
			t.Fatalf("watchdog: deadline did not unblock the run within %v", protocolWatchdog)
		}
		requireGoroutinesSettle(t, baseline)
	})
}

// TestRunContextPreCancelled: a context cancelled before the run starts
// still aborts promptly — workers may start but cannot outlive the abort.
func TestRunContextPreCancelled(t *testing.T) {
	allModes(t, "pre-cancelled", func(t *testing.T, cfg Config) {
		baseline := runtime.NumGoroutine()
		cfg.Procs = 2
		ctx, cancel := context.WithCancel(context.Background())
		cancel()

		done := make(chan error, 1)
		go func() {
			_, err := cfg.RunContext(ctx, func(c Comm) error {
				for {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
			})
			done <- err
		}()

		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
		case <-time.After(protocolWatchdog):
			t.Fatalf("watchdog: pre-cancelled run did not abort within %v", protocolWatchdog)
		}
		requireGoroutinesSettle(t, baseline)
	})
}

// TestRunBackgroundContextCompletesNormally: Config.Run (Background
// context) is unaffected by the cancellation machinery — the deterministic
// schedule of the virtual engine in particular must not change — and a
// run that is never cancelled leaves nothing behind: eight runs per engine
// put even one leaked goroutine a run (a ctx watcher that only a
// cancellation would end) past requireGoroutinesSettle's allowance.
func TestRunBackgroundContextCompletesNormally(t *testing.T) {
	allEngines(t, "background", func(t *testing.T, run runner) {
		baseline := runtime.NumGoroutine()
		for range 8 {
			err := run(2, func(c Comm) error {
				for i := 0; i < 5; i++ {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("plain run failed: %v", err)
			}
		}
		requireGoroutinesSettle(t, baseline)
	})
}

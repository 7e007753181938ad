package mp

// Dynamic confirmation for the parroutecheck mpproto rules: each pattern
// the static analyzer forbids (collective-congruence, tag-discipline,
// send-recv-pairing) is executed here on the virtual engine and shown to
// actually deadlock. Test files are outside the linter's loading scope,
// so the deliberate violations below need no //lint:allow annotations.

import (
	"errors"
	"testing"
	"time"
)

// protocolWatchdog bounds how long a deadlock demonstration may take: the
// virtual engine detects global deadlock itself, so cfg.Run must return
// quickly; if the engine ever regresses into a real hang, the watchdog
// fails the test instead of tripping the package timeout.
const protocolWatchdog = 10 * time.Second

// runWithWatchdog runs body under cfg and returns its error, failing the
// test if the engine does not resolve the protocol in time.
func runWithWatchdog(t *testing.T, cfg Config, body func(Comm) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := cfg.Run(body)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(protocolWatchdog):
		t.Fatalf("watchdog: %v engine did not resolve the protocol within %v", cfg.Mode, protocolWatchdog)
		return nil
	}
}

// TestVirtualRankGatedBarrierDeadlocks is the dynamic half of the seeded
// regression (testdata/src/seeded.Worker): a Barrier moved inside a
// c.Rank()==0 branch leaves rank 0 waiting for peers that already
// exited. collective-congruence catches this same shape statically.
func TestVirtualRankGatedBarrierDeadlocks(t *testing.T) {
	err := runWithWatchdog(t, Config{Procs: 4, Mode: Virtual}, func(c Comm) error {
		if c.Rank() == 0 {
			return c.Barrier() // ranks 1..3 never enter
		}
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("rank-gated barrier: expected ErrDeadlock, got %v", err)
	}
}

// TestVirtualOrphanTagRecvDeadlocks shows why tag-discipline reports a
// tag with recv sites but no send sites: the Recv waits on a protocol
// stream nobody ever writes, even while traffic flows on other tags.
func TestVirtualOrphanTagRecvDeadlocks(t *testing.T) {
	const (
		tagUsed   = 7
		tagOrphan = 8 // no Send anywhere carries this tag
	)
	err := runWithWatchdog(t, Config{Procs: 2, Mode: Virtual}, func(c Comm) error {
		if c.Rank() == 1 {
			return c.Send(0, tagUsed, 1)
		}
		if _, err := c.Recv(1, tagUsed); err != nil {
			return err
		}
		_, err := c.Recv(1, tagOrphan) // blocks forever
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("orphan-tag recv: expected ErrDeadlock, got %v", err)
	}
}

// TestVirtualUnskippedSelfRecvLoopDeadlocks shows why send-recv-pairing
// demands the `if r == c.Rank() { continue }` guard in Size() loops: the
// send loop skips self, so the unguarded receive loop's self-Recv waits
// on a message that was never sent.
func TestVirtualUnskippedSelfRecvLoopDeadlocks(t *testing.T) {
	const tagRing = 9
	err := runWithWatchdog(t, Config{Procs: 3, Mode: Virtual}, func(c Comm) error {
		for r := 0; r < c.Size(); r++ {
			if r == c.Rank() {
				continue
			}
			if err := c.Send(r, tagRing, c.Rank()); err != nil {
				return err
			}
		}
		for r := 0; r < c.Size(); r++ {
			// Missing the self-skip guard: r == c.Rank() blocks.
			if _, err := c.Recv(r, tagRing); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("unskipped self-recv loop: expected ErrDeadlock, got %v", err)
	}
}

package mp

// The protocol check: every rank must run the same synchronisations and
// receive every message it is sent. The virtual engine enforces both at
// run time — a run where every rank blocks fails with ErrDeadlock, and a
// run that returns with mail still queued fails naming the rank, the tag
// and the sender — and every parallel driver's tests run on it. Each test
// below runs one broken protocol and shows which of the two refuses it.
// Test files are outside the linter's loading scope, so the deliberate
// violations below need no //lint:allow annotations.

import (
	"errors"
	"strings"
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

// TestVirtualRankGatedBarrierDeadlocks: a Barrier moved inside a
// c.Rank()==0 branch leaves rank 0 waiting for peers that already
// exited.
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

// TestVirtualOrphanTagRecvDeadlocks: a Recv on a tag nobody sends waits
// forever, even while traffic flows on other tags.
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

// TestVirtualUnskippedSelfRecvLoopDeadlocks: the send loop skips self, so
// a receive loop over c.Size() without the `if r == c.Rank() { continue }`
// guard waits on a self-message that was never sent.
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

// TestVirtualUndeliveredMailFails: a run whose ranks all return nil is
// still refused when a message was never received — a self-Send with no
// self-Recv, or a peer Send on a tag the receiver never reads. The error
// names the rank holding the mail, the tag and the sender.
func TestVirtualUndeliveredMailFails(t *testing.T) {
	const (
		tagRead   = 10
		tagUnread = 11
	)
	cases := []struct {
		name string
		body func(Comm) error
		want string
	}{
		{"self-send", func(c Comm) error {
			if c.Rank() == 1 {
				return c.Send(1, tagRead, 0) // nobody receives from self
			}
			return nil
		}, "rank 1 finished with 1 undelivered messages (tag 10 from rank 1 first)"},
		{"unread-tag", func(c Comm) error {
			if c.Rank() == 0 {
				if err := c.Send(1, tagUnread, 0); err != nil {
					return err
				}
				return c.Send(1, tagRead, 0)
			}
			if c.Rank() == 1 {
				_, err := c.Recv(0, tagRead) // tagUnread is never read
				return err
			}
			return nil
		}, "rank 1 finished with 1 undelivered messages (tag 11 from rank 0 first)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runWithWatchdog(t, Config{Procs: 3, Mode: Virtual}, tc.body)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

package mp

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// The Inproc engine runs workers as truly concurrent goroutines with
// per-rank mailboxes — the deployment for hosts with real cores. Timing is
// the caller's wall clock.

type iMachine struct {
	n       int
	lim     Limits
	boxes   []*mailbox
	barrier *reusableBarrier

	mu      sync.Mutex
	aborted error
}

type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []envelope
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wakeForAbort wakes every receiver so it re-reads the abort flag, which
// the caller has already set. Taking the lock first matters: a receiver
// that found the flag clear still holds it until it sleeps, and a
// broadcast sent in that gap would wake nobody and strand it.
func (b *mailbox) wakeForAbort() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// recvMatch blocks until an envelope from (from, tag) is queued, the run
// aborts, or — when timeout > 0 — the deadline expires, in which case it
// counts a miss against the limits' counter sink and fails with an
// ErrDeadline-wrapped error. Shared by the inproc and TCP engines.
func (b *mailbox) recvMatch(from, tag int, timeout time.Duration, abortErr func() error, counters *FaultCounters) (any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout) //lint:allow nondeterminism transport deadline, never a routing decision
	}
	for {
		if i := matchEnv(b.queue, from, tag); i >= 0 {
			env := b.queue[i]
			b.queue = append(b.queue[:i], b.queue[i+1:]...)
			return env.v, nil
		}
		if err := abortErr(); err != nil {
			return nil, err
		}
		if timeout <= 0 {
			b.cond.Wait()
			continue
		}
		left := time.Until(deadline) //lint:allow nondeterminism transport deadline, never a routing decision
		if left <= 0 {
			if counters != nil {
				counters.DeadlineMisses.Add(1)
			}
			return nil, fmt.Errorf("mp: recv from rank %d tag %d: no message within %v: %w", from, tag, timeout, ErrDeadline)
		}
		// Wake this waiter when the deadline passes so the loop can fail
		// instead of sleeping on the cond forever.
		t := time.AfterFunc(left, b.cond.Broadcast)
		b.cond.Wait()
		t.Stop()
	}
}

type iComm struct {
	m    *iMachine
	rank int
}

func runInproc(ctx context.Context, n int, lim Limits, fn func(Comm) error) error {
	m := &iMachine{n: n, lim: lim, boxes: make([]*mailbox, n), barrier: newReusableBarrier(n)}
	for i := range m.boxes {
		m.boxes[i] = newMailbox()
	}
	// Cancellation rides the abort machinery: every blocked mailbox wait
	// and the barrier are released with an error wrapping ctx.Err(), and
	// unblocked workers pick it up at their next mp operation.
	stop := context.AfterFunc(ctx, func() { m.abort(cancelCause(ctx)) })
	defer stop()
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(rank int) {
			defer wg.Done()
			err := fn(&iComm{m: m, rank: rank})
			errs[rank] = err
			if err != nil {
				m.abort(fmt.Errorf("mp: rank %d failed: %w", rank, err))
			}
		}(i)
	}
	wg.Wait()
	if err := firstErr(errs); err != nil {
		return err
	}
	// Workers may all have finished their compute between the cancel and
	// their final mp operation; a cancelled run still reports as such.
	if ctx.Err() != nil {
		return cancelCause(ctx)
	}
	return nil
}

// abort releases every blocked worker after a failure.
func (m *iMachine) abort(err error) {
	m.mu.Lock()
	if m.aborted == nil {
		m.aborted = err
	}
	m.mu.Unlock()
	for _, b := range m.boxes {
		b.wakeForAbort()
	}
	m.barrier.abort()
}

func (m *iMachine) abortErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aborted
}

func (c *iComm) Rank() int { return c.rank }
func (c *iComm) Size() int { return c.m.n }

func (c *iComm) Send(to, tag int, v any) error {
	if to < 0 || to >= c.m.n {
		return fmt.Errorf("mp: send to rank %d of %d", to, c.m.n)
	}
	if err := c.m.abortErr(); err != nil {
		return err
	}
	b := c.m.boxes[to]
	b.mu.Lock()
	b.queue = append(b.queue, envelope{src: c.rank, tag: tag, v: v})
	b.mu.Unlock()
	b.cond.Broadcast()
	return nil
}

func (c *iComm) Recv(from, tag int) (any, error) {
	if from < 0 || from >= c.m.n {
		return nil, fmt.Errorf("mp: recv from rank %d of %d", from, c.m.n)
	}
	return c.m.boxes[c.rank].recvMatch(from, tag, c.m.lim.RecvTimeout, c.m.abortErr, c.m.lim.Counters)
}

func (c *iComm) Barrier() error {
	if err := c.m.abortErr(); err != nil {
		return err
	}
	if !c.m.barrier.wait() {
		if err := c.m.abortErr(); err != nil {
			return err
		}
		return ErrDeadlock
	}
	return nil
}

// reusableBarrier is a generation-counted barrier usable any number of
// times by exactly n parties.
type reusableBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     uint64
	broken  bool
}

func newReusableBarrier(n int) *reusableBarrier {
	b := &reusableBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until n parties arrive; returns false if the barrier was
// broken by abort.
func (b *reusableBarrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return false
	}
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	return !b.broken
}

func (b *reusableBarrier) abort() {
	b.mu.Lock()
	b.broken = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

package mp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The Virtual engine simulates a P-processor message-passing machine with
// a deterministic discrete-event scheme:
//
//   - exactly one worker goroutine runs at a time (a token is passed
//     between them), so the real time a worker spends between two mp
//     operations is that worker's own compute time, even on a single-core
//     host;
//   - each worker carries a virtual clock; compute spans advance it by the
//     measured real duration, communication advances it through the
//     CostModel;
//   - a message sent at sender time t becomes available to its receiver at
//     t + transfer(size); Recv advances the receiver to at least that;
//   - Barrier aligns every clock to the maximum plus the barrier cost.
//
// The simulated elapsed time of the run is the maximum virtual clock at
// completion. Program results never depend on the clock — only reported
// times do — so routing output is identical across engines.
//
// A rank that fails (a chaos crash included) does not stop the machine at
// once: the others keep being scheduled until none of them can move, and
// only then see the failure. Which worker holds the token when a rank dies
// depends on the measured clocks, but where each survivor ends up blocked
// does not — every Recv names its sender and Send never blocks — so what a
// run did before it failed is the same on every run.
//
// A run whose ranks all return nil still fails if a message was never
// received, so a protocol that sends more than it receives (a self-send,
// a tag the peer never reads) is refused, not ignored.

type vState uint8

const (
	vReady vState = iota
	vRunning
	vBlockedRecv
	vBlockedBarrier
	vDone
)

type vWorker struct {
	rank      int
	vtime     time.Duration
	state     vState
	wantSrc   int
	wantTag   int
	queue     []envelope
	grant     chan struct{}
	lastGrant time.Time
}

type vMachine struct {
	mu        sync.Mutex
	model     CostModel
	n         int
	workers   []*vWorker
	inBarrier int
	done      int
	failed    error // first rank failure; becomes err once no survivor can move
	err       error
}

type vComm struct {
	m *vMachine
	w *vWorker
}

func runVirtual(ctx context.Context, n int, model CostModel, fn func(Comm) error) (time.Duration, error) {
	// The simulation charges real elapsed time to worker clocks, so a GC
	// cycle triggered by a previous run's garbage would be billed to
	// whichever worker it lands on. Collect up front for a clean slate.
	runtime.GC()
	m := &vMachine{model: model, n: n, workers: make([]*vWorker, n)}
	for i := 0; i < n; i++ {
		m.workers[i] = &vWorker{rank: i, state: vReady, grant: make(chan struct{}, 1)}
	}
	// Cancellation sets the machine error and wakes blocked workers; the
	// running worker sees it at its next mp operation. Under the Background
	// context of a deterministic run the watcher never fires, so the
	// discrete-event schedule is untouched.
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.err == nil && m.done < m.n {
			m.err = cancelCause(ctx)
			m.wakeAllLocked()
		}
	})
	defer stop()
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		w := m.workers[i]
		go func() {
			defer wg.Done()
			<-w.grant
			m.mu.Lock()
			w.lastGrant = time.Now() //lint:allow nondeterminism compute-span measurement feeding the virtual clock, not routing state
			m.mu.Unlock()
			err := fn(&vComm{m: m, w: w})
			m.finish(w, err)
			errs[w.rank] = err
		}()
	}
	m.mu.Lock()
	m.scheduleLocked()
	m.mu.Unlock()
	wg.Wait()

	var elapsed time.Duration
	for _, w := range m.workers {
		if w.vtime > elapsed {
			elapsed = w.vtime
		}
	}
	if err := firstErr(errs); err != nil {
		return elapsed, err
	}
	if m.err != nil {
		return elapsed, m.err
	}
	return elapsed, undelivered(m.workers)
}

// undelivered fails a run whose ranks all returned nil but left mail in a
// mailbox: a message nobody received is a protocol error, just as a Recv
// nobody sends to is. Only Virtual checks it, because only here do the
// mailboxes stay still once every rank has returned.
func undelivered(workers []*vWorker) error {
	for _, w := range workers {
		if len(w.queue) > 0 {
			e := w.queue[0]
			return fmt.Errorf("mp: rank %d finished with %d undelivered messages (tag %d from rank %d first)",
				w.rank, len(w.queue), e.tag, e.src)
		}
	}
	return nil
}

// accrueLocked charges the real time since the worker got the token to its
// virtual clock. Callers must hold m.mu and must reset lastGrant (via
// resumeLocked) before letting the worker compute again.
func (m *vMachine) accrueLocked(w *vWorker) {
	w.vtime += time.Since(w.lastGrant) //lint:allow nondeterminism compute-span measurement feeding the virtual clock, not routing state
}

// resumeLocked restarts the worker's compute span measurement; called just
// before an operation returns control to worker code.
func (m *vMachine) resumeLocked(w *vWorker) {
	w.lastGrant = time.Now() //lint:allow nondeterminism compute-span measurement feeding the virtual clock, not routing state
}

// scheduleLocked hands the token to the ready worker with the smallest
// virtual clock (ties broken by rank). If nobody is ready and the machine
// is not finished, every remaining worker is blocked forever: record the
// failure that stranded them, or a deadlock, and wake them so they can
// return the error.
func (m *vMachine) scheduleLocked() {
	var next *vWorker
	for _, w := range m.workers {
		if w.state != vReady {
			continue
		}
		if next == nil || w.vtime < next.vtime {
			next = w
		}
	}
	if next != nil {
		// The hand-off sends under m.mu but cannot block: grant has
		// capacity 1, and the scheduler (here and in wakeAllLocked) keeps
		// at most one token outstanding per worker.
		next.state = vRunning
		next.grant <- struct{}{}
		return
	}
	if m.done == m.n {
		return
	}
	if m.err == nil {
		m.err = m.stuckErrLocked(ErrDeadlock)
	}
	m.wakeAllLocked()
}

// stuckErrLocked is the error for workers that can no longer move: the
// failure of the rank they wait for if there was one, else deadlock.
func (m *vMachine) stuckErrLocked(deadlock error) error {
	if m.failed != nil {
		return m.failed
	}
	return deadlock
}

// wakeAllLocked releases every blocked worker after an abort so they can
// observe m.err.
func (m *vMachine) wakeAllLocked() {
	for _, w := range m.workers {
		if w.state == vBlockedRecv || w.state == vBlockedBarrier {
			w.state = vRunning
			w.grant <- struct{}{}
		}
	}
}

func (m *vMachine) finish(w *vWorker, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accrueLocked(w)
	w.state = vDone
	m.done++
	if err != nil && m.failed == nil {
		m.failed = fmt.Errorf("mp: rank %d failed: %w", w.rank, err)
	}
	m.scheduleLocked()
}

func (c *vComm) Rank() int { return c.w.rank }
func (c *vComm) Size() int { return c.m.n }

func (c *vComm) Send(to, tag int, v any) error {
	m, w := c.m, c.w
	if to < 0 || to >= m.n {
		return fmt.Errorf("mp: send to rank %d of %d", to, m.n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accrueLocked(w)
	if m.err != nil {
		return m.err
	}
	size := payloadSize(v)
	w.vtime += m.model.SendOverhead
	env := envelope{src: w.rank, tag: tag, v: v, avail: w.vtime + m.model.transfer(size)}
	dst := m.workers[to]
	dst.queue = append(dst.queue, env)
	if dst.state == vBlockedRecv && dst.wantSrc == w.rank && dst.wantTag == tag {
		dst.state = vReady
	}
	m.resumeLocked(w)
	return nil
}

func (c *vComm) Recv(from, tag int) (any, error) {
	m, w := c.m, c.w
	if from < 0 || from >= m.n {
		return nil, fmt.Errorf("mp: recv from rank %d of %d", from, m.n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accrueLocked(w)
	for {
		if m.err != nil {
			return nil, m.err
		}
		if env, ok := takeEnv(&w.queue, from, tag); ok {
			if env.avail > w.vtime {
				w.vtime = env.avail
			}
			w.vtime += m.model.RecvOverhead
			m.resumeLocked(w)
			return env.v, nil
		}
		w.state = vBlockedRecv
		w.wantSrc, w.wantTag = from, tag
		m.scheduleLocked()
		m.mu.Unlock()
		<-w.grant
		m.mu.Lock()
	}
}

func (c *vComm) Barrier() error {
	m, w := c.m, c.w
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accrueLocked(w)
	if m.err != nil {
		return m.err
	}
	m.inBarrier++
	if m.inBarrier == m.n {
		var vmax time.Duration
		for _, o := range m.workers {
			if o.vtime > vmax {
				vmax = o.vtime
			}
		}
		cost := m.model.BarrierBase + time.Duration(m.n)*m.model.BarrierPerProc
		for _, o := range m.workers {
			o.vtime = vmax + cost
			if o.state == vBlockedBarrier {
				o.state = vReady
			}
		}
		m.inBarrier = 0
		m.resumeLocked(w)
		return nil
	}
	if m.inBarrier+m.done == m.n {
		// The remaining workers already finished and can never enter the
		// barrier: protocol error.
		m.err = m.stuckErrLocked(fmt.Errorf("mp: rank %d waits at a barrier %d ranks already exited: %w",
			w.rank, m.done, ErrDeadlock))
		m.inBarrier--
		m.wakeAllLocked()
		return m.err
	}
	w.state = vBlockedBarrier
	m.scheduleLocked()
	m.mu.Unlock()
	<-w.grant
	m.mu.Lock()
	if m.err != nil {
		return m.err
	}
	m.resumeLocked(w)
	return nil
}

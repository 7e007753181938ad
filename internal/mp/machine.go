package mp

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"
)

// The real-time machine. Inproc, loopback TCP and the multi-process mesh
// are one machine that differs only in its rank table: which ranks live in
// this process (they get a mailbox, and fn runs on them here) and which
// rank pairs are joined by a socket (they get a link). Inproc is every
// rank local and no links, loopback TCP every rank local and every pair
// linked (tcp.go), the rendezvous mesh one local rank linked to all the
// others (rendezvous.go). A message to a rank this one has no link to is
// handed over by reference; over a link it travels as a parroute-mpwire/1
// frame (frame.go). Everything else — mailboxes, deadlines, abort, rank
// loss, barriers, teardown — is written once, here. Timing is the caller's
// wall clock.

type machine struct {
	n     int
	lim   Limits
	boxes []*mailbox // nil for ranks that live in another process
	links [][]*link  // [rank][peer], a row per local rank; nil entries share memory

	mu      sync.Mutex
	aborted error
	closing bool   // end-of-run teardown in progress
	lost    []bool // ranks whose connections died mid-run
}

type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []envelope
}

// link is one directed view of a connection: the socket plus a reusable
// frame-encoding buffer of at most frameChunk bytes, guarded by a mutex
// that Send holds across a frame's chunk writes, so frames never
// interleave (Limits.SendTimeout bounds each frame's stall). dead marks a
// stream that failed mid-write — a partial frame may be on the wire, so
// the connection must never carry another send.
type link struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
	dead bool
}

// comm is one local rank's view of the machine.
type comm struct {
	m    *machine
	rank int
}

func everyRank(int) bool { return true }

// newMachine builds the shared state for n ranks, with a mailbox and an
// (empty) link row for each rank local says runs in this process.
func newMachine(n int, lim Limits, local func(rank int) bool) *machine {
	m := &machine{n: n, lim: lim, boxes: make([]*mailbox, n), links: make([][]*link, n), lost: make([]bool, n)}
	for i := 0; i < n; i++ {
		if local(i) {
			b := &mailbox{}
			b.cond = sync.NewCond(&b.mu)
			m.boxes[i] = b
			m.links[i] = make([]*link, n)
		}
	}
	return m
}

// connect installs rank's endpoint of its connection to each peer (nil
// entries stay in-memory). Each side of a connection installs its own
// endpoint: rank writes to it in Send and reads from it in readLoop.
func (m *machine) connect(rank int, conns []net.Conn) {
	for peer, conn := range conns {
		if conn != nil {
			m.links[rank][peer] = &link{conn: conn}
		}
	}
}

// run executes fn on every local rank and returns the first error in rank
// order. The first failure — or ctx ending — aborts the machine: blocked
// mailbox waits are released with the cause, unblocked ranks fail at their
// next operation (a Send stalled inside a socket write is additionally
// bounded by Limits.SendTimeout). The watcher is registered only now, on a
// fully built machine: an already-cancelled ctx fires it at once.
//
// Teardown: when every rank is local, the join below separates "all ranks
// done" from "close the sockets". When some rank lives in another process
// there is no such join, so each rank ends with the two-phase shutdown
// protocol (see shutdown). Which case applies is read off the rank table.
func (m *machine) run(ctx context.Context, fn func(Comm) error) error {
	stop := context.AfterFunc(ctx, func() { m.abort(cancelCause(ctx)) })
	defer stop()

	var pumps sync.WaitGroup
	for rank, row := range m.links {
		for peer, l := range row {
			if l != nil {
				pumps.Add(1)
				go func() {
					defer pumps.Done()
					m.readLoop(rank, peer, l.conn)
				}()
			}
		}
	}

	remote := slices.Contains(m.boxes, nil)
	errs := make([]error, m.n)
	var wg sync.WaitGroup
	for rank, box := range m.boxes {
		if box == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &comm{m: m, rank: rank}
			err := fn(c)
			if err == nil && remote {
				err = c.shutdown()
			}
			errs[rank] = err
			if err != nil {
				m.abort(fmt.Errorf("mp: rank %d failed: %w", rank, err))
			}
		}()
	}
	wg.Wait()
	m.closeAll()
	pumps.Wait()
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

// shutdown is the two-phase termination a rank runs after its worker
// returned without error on a machine that spans processes, on the
// reserved tagShutdown so its tokens never interleave with a user-level
// barrier's: barrier #1 proves every rank's worker succeeded; the rank
// then marks itself closing (so arriving EOFs read as teardown, not rank
// loss) and enters barrier #2, which proves every rank is marked; only
// then does run close connections. A rank whose worker failed skips this
// and tears down at once — its peers' readLoops are not yet closing, so
// they correctly attribute the dropped connections to a lost rank.
func (c *comm) shutdown() error {
	if err := c.barrierOn(tagShutdown); err != nil {
		return fmt.Errorf("mp: shutdown barrier: %w", err)
	}
	c.m.mu.Lock()
	c.m.closing = true
	c.m.mu.Unlock()
	if err := c.barrierOn(tagShutdown); err != nil {
		return fmt.Errorf("mp: shutdown release: %w", err)
	}
	return nil
}

// abort records the first failure and releases every blocked receiver.
// The wake-up takes each mailbox lock first: a receiver that found the
// flag clear still holds it until it sleeps, and a broadcast sent in that
// gap would wake nobody and strand it.
func (m *machine) abort(err error) {
	m.mu.Lock()
	if m.aborted == nil {
		m.aborted = err
	}
	m.mu.Unlock()
	for _, b := range m.boxes {
		if b != nil {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		}
	}
}

func (m *machine) abortErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aborted
}

// sendErr is why a send from->to must not start: the run's abort, or the
// destination's loss.
func (m *machine) sendErr(from, to int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.aborted == nil && m.lost[to] {
		return fmt.Errorf("mp: send %d->%d: %w", from, to, ErrRankLost)
	}
	return m.aborted
}

func (m *machine) markLost(rank int) {
	m.mu.Lock()
	m.lost[rank] = true
	m.mu.Unlock()
}

func (m *machine) isLost(rank int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lost[rank]
}

// closeAll marks the orderly end of the run before closing any connection,
// so readLoops attribute the coming EOFs to teardown, not loss.
func (m *machine) closeAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closing = true
	for _, row := range m.links {
		for _, l := range row {
			if l != nil {
				l.conn.Close()
			}
		}
	}
}

// put queues env for rank and wakes its receiver — the one place a message
// enters a mailbox, whether it came by reference or off a socket.
func (m *machine) put(rank int, env envelope) {
	b := m.boxes[rank]
	b.mu.Lock()
	b.queue = append(b.queue, env)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// readLoop decodes frames arriving on conn for the given local rank. A
// mid-run read or decode failure means the peer's endpoint died, so the
// peer is marked lost and every blocked rank is released with ErrRankLost.
// That includes a clean EOF: closing is always set before any orderly
// teardown closes a connection (closeAll here, and across processes
// barrier #2 of the shutdown protocol proves every rank is marked before
// any closes), so an EOF while not closing is a peer that went away
// mid-run — exactly how a failed peer process looks, since its own
// closeAll sends a clean FIN. A frame that claims any source but the
// connection's peer is corrupt too: queued as claimed it would feed
// another rank's stream, or sit under a source nothing receives from.
// After an abort, arriving envelopes are dropped instead of queued:
// nothing will ever drain the mailbox again, so appending would only grow
// the queue unboundedly while the run unwinds.
func (m *machine) readLoop(rank, peer int, conn net.Conn) {
	fr := newFrameReader(conn)
	for {
		src, tag, v, err := fr.next()
		if err != nil && fr.failed {
			m.peerFailed(peer, fmt.Errorf("mp: rank %d lost its connection to rank %d (%w): %w", rank, peer, err, ErrRankLost))
			return
		}
		if err == nil && src != peer {
			err = wireErr("frame claims source rank %d", src)
		}
		if err != nil {
			m.peerFailed(peer, fmt.Errorf("mp: rank %d: corrupt frame from rank %d (%w): %w", rank, peer, err, ErrRankLost))
			return
		}
		if m.abortErr() != nil {
			continue // drain the socket, but keep the dead run's queue bounded
		}
		m.put(rank, envelope{src: src, tag: tag, v: v})
	}
}

// peerFailed marks peer lost and aborts with err, unless the run is
// already tearing down or aborted — then the failure is an echo of that.
func (m *machine) peerFailed(peer int, err error) {
	m.mu.Lock()
	echo := m.closing || m.aborted != nil
	if !echo {
		m.lost[peer] = true
	}
	m.mu.Unlock()
	if !echo {
		m.abort(err)
	}
}

// injectCrash makes this rank die from its peers' point of view: it is
// marked lost first (so error paths already attribute failures to a dead
// rank, not a stray socket error), then all of its connections are torn
// down, which kills the read pumps on both sides. Used by the chaos
// engine; safe to call more than once because net.Conn.Close is.
func (c *comm) injectCrash() {
	c.m.markLost(c.rank)
	for _, l := range c.m.links[c.rank] {
		if l != nil {
			l.conn.Close()
		}
	}
}

func (c *comm) Rank() int { return c.rank }
func (c *comm) Size() int { return c.m.n }

func (c *comm) Send(to, tag int, v any) error {
	m := c.m
	if to < 0 || to >= m.n {
		return fmt.Errorf("mp: send to rank %d of %d", to, m.n)
	}
	if err := m.sendErr(c.rank, to); err != nil {
		return err
	}
	l := m.links[c.rank][to]
	if l == nil {
		if m.boxes[to] == nil {
			return fmt.Errorf("mp: send %d->%d: no link to a rank in another process", c.rank, to)
		}
		m.put(to, envelope{src: c.rank, tag: tag, v: v})
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		// An earlier write on this connection failed partway through; the
		// stream may hold half a frame, so reusing it would feed the peer
		// garbage it misattributes. The peer was marked lost then.
		return fmt.Errorf("mp: send %d->%d: connection already failed: %w", c.rank, to, ErrRankLost)
	}
	if d := m.lim.SendTimeout; d > 0 {
		deadline := time.Now().Add(d) //lint:allow nondeterminism transport deadline, never a routing decision
		if err := l.conn.SetWriteDeadline(deadline); err != nil {
			// Arming the deadline only fails on a dead socket (e.g. the
			// peer crashed and closed it); ignoring it would start an
			// unbounded write.
			l.dead = true
			return c.sendFailed(to, err)
		}
		defer l.conn.SetWriteDeadline(time.Time{})
	}
	buf, wrote, err := writeFrame(l.conn, l.buf[:0], c.rank, tag, v)
	l.buf = buf
	switch {
	case err != nil && !wrote:
		// Encoding failed before any byte reached the socket; the stream
		// is still clean and the connection stays usable.
		return fmt.Errorf("mp: send %d->%d: %w", c.rank, to, err)
	case err != nil:
		// Any failed write may have left a partial frame on the wire, so
		// the connection is dead from here on — never reused.
		l.dead = true
		return c.sendFailed(to, err)
	}
	return nil
}

// sendFailed attributes a failed send on a now-dead connection: a stalled
// write past its deadline is a deadline miss, and any other failure (a
// crashed peer's EPIPE can beat its EOF) is ErrRankLost. In every case the
// peer is marked lost — the stream to it cannot carry another frame —
// unless this rank itself is the one that crashed (then the peer is fine;
// blaming it would misdirect the survivors' degradation).
func (c *comm) sendFailed(to int, err error) error {
	if c.m.isLost(to) || c.m.isLost(c.rank) {
		return fmt.Errorf("mp: send %d->%d: %w: %w", c.rank, to, err, ErrRankLost)
	}
	c.m.markLost(to)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		if c.m.lim.Counters != nil {
			c.m.lim.Counters.DeadlineMisses.Add(1)
		}
		return fmt.Errorf("mp: send %d->%d: write stalled past %v: %w", c.rank, to, c.m.lim.SendTimeout, ErrDeadline)
	}
	return fmt.Errorf("mp: send %d->%d: %w: %w", c.rank, to, err, ErrRankLost)
}

// Recv blocks until an envelope from (from, tag) is queued, the run
// aborts, or — when Limits.RecvTimeout is set — the deadline expires, in
// which case it counts a miss against the limits' counter sink and fails
// with an ErrDeadline-wrapped error.
func (c *comm) Recv(from, tag int) (any, error) {
	m := c.m
	if from < 0 || from >= m.n {
		return nil, fmt.Errorf("mp: recv from rank %d of %d", from, m.n)
	}
	b := m.boxes[c.rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	timeout := m.lim.RecvTimeout
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout) //lint:allow nondeterminism transport deadline, never a routing decision
	}
	for {
		if env, ok := takeEnv(&b.queue, from, tag); ok {
			return env.v, nil
		}
		if err := m.abortErr(); err != nil {
			return nil, err
		}
		if timeout <= 0 {
			b.cond.Wait()
			continue
		}
		left := time.Until(deadline) //lint:allow nondeterminism transport deadline, never a routing decision
		if left <= 0 {
			if m.lim.Counters != nil {
				m.lim.Counters.DeadlineMisses.Add(1)
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

// Barrier gathers a token at rank 0 and releases everyone — all message
// traffic, so it is the same code with or without sockets and a rank that
// never arrives trips Limits.RecvTimeout like any other missing message.
func (c *comm) Barrier() error { return c.barrierOn(tagBarrier) }

// barrierOn is the gather/release barrier on an engine-reserved tag.
func (c *comm) barrierOn(tag int) error {
	if c.rank == 0 {
		for r := 1; r < c.m.n; r++ {
			if _, err := c.Recv(r, tag); err != nil {
				return err
			}
		}
		for r := 1; r < c.m.n; r++ {
			if err := c.Send(r, tag, true); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Send(0, tag, true); err != nil {
		return err
	}
	_, err := c.Recv(0, tag)
	return err
}

package mp

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// The TCP engine gives every rank a loopback listener and a full mesh of
// framed connections — the "distributed memory machine" deployment shape,
// with real serialization and kernel round trips on every message. Frames
// carry the parroute-mpwire/1 codecs (see frame.go). Barriers are built
// from point-to-point messages (gather to rank 0, then release) on the
// reserved tagBarrier, so the whole engine needs nothing beyond sockets.
// The same machine also runs with a single local rank under the
// multi-process rendezvous engine (see rendezvous.go).

type tComm struct {
	m    *tMachine
	rank int
}

type tMachine struct {
	n     int
	lim   Limits
	boxes []*mailbox // nil for ranks that live in another process
	peers [][]*tPeer // [rank][peer]; only local ranks' rows are populated

	mu      sync.Mutex
	aborted error
	closing bool   // end-of-run teardown in progress
	lost    []bool // ranks whose connections died mid-run
}

// newTMachine builds the shared state for n ranks. locals marks which
// ranks run in this process: the loopback engine owns all of them, the
// rendezvous engine exactly one.
func newTMachine(n int, lim Limits, locals func(rank int) bool) *tMachine {
	m := &tMachine{n: n, lim: lim, boxes: make([]*mailbox, n), peers: make([][]*tPeer, n), lost: make([]bool, n)}
	for i := 0; i < n; i++ {
		if locals(i) {
			m.boxes[i] = newMailbox()
			m.peers[i] = make([]*tPeer, n)
		}
	}
	return m
}

// tPeer is one directed view of a connection: the socket plus a reusable
// frame-encoding buffer, guarded by a mutex. nil for self. dead marks a
// stream that failed mid-write — a partial frame may be on the wire, so
// the connection must never carry another send.
type tPeer struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
	dead bool
}

func runTCP(ctx context.Context, n int, lim Limits, fn func(Comm) error) error {
	m := newTMachine(n, lim, func(int) bool { return true })
	// Cancellation rides the abort machinery: blocked mailbox waits are
	// released with an error wrapping ctx.Err(); unblocked ranks fail at
	// their next Send/Recv. A Send stalled inside a socket write is
	// additionally bounded by Limits.SendTimeout. Registered only after
	// the machine is fully built: an already-cancelled ctx fires the
	// watcher synchronously on another goroutine.
	stop := context.AfterFunc(ctx, func() { m.abort(cancelCause(ctx)) })
	defer stop()

	// Every rank listens; rank i dials every j > i and introduces itself
	// with a framed hello.
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(listeners)
			return fmt.Errorf("mp: listen for rank %d: %w", i, err)
		}
		listeners[i] = l
	}
	defer closeListeners(listeners)

	var connMu sync.Mutex
	var connErr error
	var wgConn sync.WaitGroup
	// fail records the first setup error and closes every listener so no
	// accept goroutine stays parked in Accept waiting for a connection
	// that will never arrive (a failed dialer would otherwise hang
	// wgConn.Wait forever). closeListeners ignores close errors, so the
	// deferred second close is harmless.
	fail := func(err error) {
		setErr(&connMu, &connErr, err)
		closeListeners(listeners)
	}
	// Accept side: rank j accepts n-1-j connections (from every i < j).
	// The hello read is bounded by the handshake timeout, so a dialer
	// that connects and then goes silent fails the setup instead of
	// parking this goroutine forever.
	for j := 1; j < n; j++ {
		wgConn.Add(1)
		go func(j int) {
			defer wgConn.Done()
			for k := 0; k < j; k++ {
				conn, err := listeners[j].Accept()
				if err != nil {
					fail(fmt.Errorf("mp: accept on rank %d: %w", j, err))
					return
				}
				h, err := recvHello(conn, m.lim.handshakeTimeout())
				if err != nil {
					conn.Close()
					fail(fmt.Errorf("mp: handshake on rank %d: %w", j, err))
					return
				}
				registerConn(m, j, h.Rank, conn)
			}
		}(j)
	}
	// Dial side.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			wgConn.Add(1)
			go func(i, j int) {
				defer wgConn.Done()
				conn, err := net.Dial("tcp", listeners[j].Addr().String())
				if err != nil {
					fail(fmt.Errorf("mp: dial %d->%d: %w", i, j, err))
					return
				}
				if err := sendHello(conn, i, "", m.lim.handshakeTimeout()); err != nil {
					conn.Close()
					fail(fmt.Errorf("mp: handshake %d->%d: %w", i, j, err))
					return
				}
				registerConn(m, i, j, conn)
			}(i, j)
		}
	}
	wgConn.Wait()
	if connErr != nil {
		m.closeAll()
		return connErr
	}

	// Reader pumps: one per (rank, peer) connection.
	var wgRead sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		for peer := 0; peer < n; peer++ {
			p := m.peers[rank][peer]
			if p == nil {
				continue
			}
			wgRead.Add(1)
			go func(rank, peer int, conn net.Conn) {
				defer wgRead.Done()
				m.readLoop(rank, peer, conn)
			}(rank, peer, p.conn)
		}
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(rank int) {
			defer wg.Done()
			err := fn(&tComm{m: m, rank: rank})
			errs[rank] = err
			if err != nil {
				m.abort(fmt.Errorf("mp: rank %d failed: %w", rank, err))
			}
		}(i)
	}
	wg.Wait()
	m.closeAll()
	wgRead.Wait()
	if err := firstErr(errs); err != nil {
		return err
	}
	if ctx.Err() != nil {
		return cancelCause(ctx)
	}
	return nil
}

func setErr(mu *sync.Mutex, dst *error, err error) {
	mu.Lock()
	defer mu.Unlock()
	if *dst == nil {
		*dst = err
	}
}

func closeListeners(ls []net.Listener) {
	for _, l := range ls {
		if l != nil {
			l.Close()
		}
	}
}

// registerConn installs owner's endpoint of its connection to peer. Each
// side of a TCP connection registers its own endpoint: owner writes to it
// in Send and reads from it in readLoop.
func registerConn(m *tMachine, owner, peer int, conn net.Conn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.peers[owner][peer] = &tPeer{conn: conn}
}

// readLoop decodes frames arriving on conn for the given local rank. A
// mid-run read or decode failure means the peer's endpoint died, so the
// peer is marked lost and every blocked rank is released with
// ErrRankLost. That includes a clean EOF: closing is always set before
// any orderly teardown closes a connection (closeAll here, and across
// processes barrier #2 of the shutdown protocol proves every rank is
// marked before any closes), so an EOF while not closing is a peer that
// went away mid-run — exactly how a failed peer process looks, since its
// own closeAll sends a clean FIN. After an abort, arriving envelopes are
// dropped instead of queued: nothing will ever drain the mailbox again,
// so appending would only grow the queue unboundedly while the run
// unwinds.
func (m *tMachine) readLoop(rank, peer int, conn net.Conn) {
	r := bufio.NewReader(conn)
	var scratch []byte
	for {
		body, err := readFrame(r, scratch)
		if err != nil {
			if !m.isClosing() && m.abortErr() == nil {
				m.markLost(peer)
				m.abort(fmt.Errorf("mp: rank %d lost its connection to rank %d (%w): %w", rank, peer, err, ErrRankLost))
			}
			return
		}
		scratch = body
		src, tag, v, err := decodeFrameBody(body)
		if err != nil {
			if !m.isClosing() && m.abortErr() == nil {
				m.markLost(peer)
				m.abort(fmt.Errorf("mp: rank %d: corrupt frame from rank %d (%w): %w", rank, peer, err, ErrRankLost))
			}
			return
		}
		if m.abortErr() != nil {
			continue // drain the socket, but keep the dead run's queue bounded
		}
		b := m.boxes[rank]
		b.mu.Lock()
		b.queue = append(b.queue, envelope{src: src, tag: tag, v: v})
		b.mu.Unlock()
		b.cond.Broadcast()
	}
}

func (m *tMachine) markLost(rank int) {
	m.mu.Lock()
	m.lost[rank] = true
	m.mu.Unlock()
}

func (m *tMachine) isLost(rank int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lost[rank]
}

func (m *tMachine) isClosing() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closing
}

// setClosing marks the orderly end of a run before any connection is
// closed, so readLoops attribute the coming EOFs to teardown, not loss.
func (m *tMachine) setClosing() {
	m.mu.Lock()
	m.closing = true
	m.mu.Unlock()
}

// injectCrash makes this rank die from its peers' point of view: it is
// marked lost first (so error paths already attribute failures to a dead
// rank, not a stray socket error), then all of its connections are torn
// down, which kills the read pumps on both sides. Used by the chaos
// engine; safe to call more than once because net.Conn.Close is.
func (c *tComm) injectCrash() {
	m := c.m
	m.markLost(c.rank)
	m.mu.Lock()
	conns := make([]net.Conn, 0, m.n)
	for _, p := range m.peers[c.rank] {
		if p != nil && p.conn != nil {
			conns = append(conns, p.conn)
		}
	}
	m.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
}

func (m *tMachine) abort(err error) {
	m.mu.Lock()
	if m.aborted == nil {
		m.aborted = err
	}
	m.mu.Unlock()
	for _, b := range m.boxes {
		if b != nil {
			b.wakeForAbort()
		}
	}
}

func (m *tMachine) abortErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aborted
}

func (m *tMachine) closeAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closing = true
	for i := range m.peers {
		for j := range m.peers[i] {
			if p := m.peers[i][j]; p != nil && p.conn != nil {
				p.conn.Close()
			}
		}
	}
}

func (c *tComm) Rank() int { return c.rank }
func (c *tComm) Size() int { return c.m.n }

func (c *tComm) Send(to, tag int, v any) error {
	if to < 0 || to >= c.m.n {
		return fmt.Errorf("mp: send to rank %d of %d", to, c.m.n)
	}
	if err := c.m.abortErr(); err != nil {
		return err
	}
	if c.m.isLost(to) {
		return fmt.Errorf("mp: send %d->%d: %w", c.rank, to, ErrRankLost)
	}
	if to == c.rank {
		b := c.m.boxes[c.rank]
		b.mu.Lock()
		b.queue = append(b.queue, envelope{src: c.rank, tag: tag, v: v})
		b.mu.Unlock()
		b.cond.Broadcast()
		return nil
	}
	p := c.m.peers[c.rank][to]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		// An earlier write on this connection failed partway through; the
		// stream may hold half a frame, so reusing it would feed the peer
		// garbage it misattributes. The peer was marked lost then.
		return fmt.Errorf("mp: send %d->%d: connection already failed: %w", c.rank, to, ErrRankLost)
	}
	frame, err := appendFrame(p.buf[:0], c.rank, tag, v)
	if err != nil {
		// Encoding failed before any byte reached the socket; the stream
		// is still clean and the connection stays usable.
		return fmt.Errorf("mp: send %d->%d: %w", c.rank, to, err)
	}
	p.buf = frame
	if d := c.m.lim.SendTimeout; d > 0 {
		deadline := time.Now().Add(d) //lint:allow nondeterminism transport deadline, never a routing decision
		if err := p.conn.SetWriteDeadline(deadline); err != nil {
			// Arming the deadline only fails on a dead socket (e.g. the
			// peer crashed and closed it); ignoring it would start an
			// unbounded write.
			p.dead = true
			return c.sendFailed(p, to, err)
		}
		defer p.conn.SetWriteDeadline(time.Time{})
	}
	if _, err := p.conn.Write(frame); err != nil { //lint:allow lock-across-blocking per-peer write serialization is the framing invariant; the write deadline set above bounds the stall when SendTimeout is configured
		// Any failed write may have left a partial frame on the wire, so
		// the connection is dead from here on — never reused.
		p.dead = true
		return c.sendFailed(p, to, err)
	}
	return nil
}

// sendFailed attributes a failed send on a now-dead connection: a dead
// peer beats a raw socket error, and a stalled write past its deadline is
// a deadline miss. In every case the peer is marked lost — the stream to
// it cannot carry another frame — unless this rank itself is the one
// that crashed (then the peer is fine; blaming it would misdirect the
// survivors' degradation).
func (c *tComm) sendFailed(p *tPeer, to int, err error) error {
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
	return fmt.Errorf("mp: send %d->%d: %w", c.rank, to, err)
}

func (c *tComm) Recv(from, tag int) (any, error) {
	if from < 0 || from >= c.m.n {
		return nil, fmt.Errorf("mp: recv from rank %d of %d", from, c.m.n)
	}
	return c.m.boxes[c.rank].recvMatch(from, tag, c.m.lim.RecvTimeout, c.m.abortErr, c.m.lim.Counters)
}

// Barrier gathers a token at rank 0 and releases everyone — all message
// traffic, so it works identically over sockets.
func (c *tComm) Barrier() error { return c.barrierOn(tagBarrier) }

// barrierOn is the gather/release barrier on an engine-reserved tag; the
// rendezvous engine's shutdown protocol runs it on tagShutdown so its
// tokens can never interleave with a user-level barrier's.
func (c *tComm) barrierOn(tag int) error {
	if c.m.n == 1 {
		return nil
	}
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

package mp

import (
	"fmt"
	"net"
)

// The loopback TCP engine is the machine with every rank in this process
// and every pair of ranks joined by a 127.0.0.1 socket — the "distributed
// memory machine" deployment shape, with real serialization and kernel
// round trips on every message, and nothing beyond sockets: barriers are
// the machine's point-to-point gather/release.

// loopbackMesh builds that machine. Every rank listens; then, one pair
// i < j at a time, rank i dials rank j and introduces itself with a framed
// hello and rank j accepts it. One goroutine does all of it: a loopback
// dial completes against the listen backlog and the hello waits in the
// socket buffer, so the accept that follows finds its connection already
// there — nothing blocks on a peer that has yet to act, and a failure has
// no parked accept to release, only sockets to close.
func loopbackMesh(n int, lim Limits) (*machine, error) {
	listeners := make([]net.Listener, n)
	conns := make([][]net.Conn, n)
	defer func() {
		for _, l := range listeners {
			if l != nil {
				l.Close()
			}
		}
	}()
	fail := func(err error) (*machine, error) {
		for _, row := range conns {
			closeConns(row)
		}
		return nil, err
	}
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("mp: listen for rank %d: %w", i, err))
		}
		listeners[i], conns[i] = l, make([]net.Conn, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			conn, err := net.Dial("tcp", listeners[j].Addr().String())
			if err != nil {
				return fail(fmt.Errorf("mp: dial %d->%d: %w", i, j, err))
			}
			conns[i][j] = conn
			if err := sendHello(conn, i, "", handshakeTimeout); err != nil {
				return fail(fmt.Errorf("mp: handshake %d->%d: %w", i, j, err))
			}
			peer, err := listeners[j].Accept()
			if err != nil {
				return fail(fmt.Errorf("mp: accept on rank %d: %w", j, err))
			}
			// The listener expects rank i and nobody else here: a stray
			// local client that got into the backlog first is refused by
			// its rank, or by the hello timeout if it stays silent.
			if _, err := admitHello(peer, handshakeTimeout, conns[j], i, i+1); err != nil {
				return fail(fmt.Errorf("mp: handshake on rank %d: %w", j, err))
			}
		}
	}
	m := newMachine(n, lim, everyRank)
	for rank, row := range conns {
		m.connect(rank, row)
	}
	return m, nil
}

func closeConns(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

package mp

import (
	"context"
	"fmt"
	"net"
	"time"
)

// Multi-process TCP: the same framed transport as the loopback engine,
// but each rank is its own OS process and the mesh forms through a
// rank-zero rendezvous.
//
// Rank 0 binds the configured address. Every other rank dials it
// (retrying while rank 0 comes up), opens its own mesh listener, and
// introduces itself with a hello frame carrying its rank, its listener
// address, and the build's WireProtocolChecksum. Once all ranks have
// checked in, rank 0 replies to each with the full address table; the
// rendezvous connections themselves become the 0<->r mesh links, and the
// remaining links form the loopback engine's way (rank i dials every
// j > i at the table address, introducing itself with a hello).
//
// The result is the machine with one local rank (machine.go); because the
// other ranks live elsewhere, its run ends with the two-phase shutdown.

// NetConfig places one process at a rank of a multi-process TCP mesh.
// Every cooperating process must run the same binary build (the
// rendezvous verifies WireProtocolChecksum) with the same Ranks and Addr
// and a distinct Rank.
type NetConfig struct {
	// Rank is this process's rank in [0, Ranks).
	Rank int
	// Ranks is the total number of cooperating processes.
	Ranks int
	// Addr is the rendezvous address: rank 0 binds it, every other rank
	// dials it. Host:port; the host also picks the interface the other
	// ranks' mesh listeners bind.
	Addr string
	// RendezvousTimeout bounds mesh formation end to end — dialing rank 0
	// while it starts up, collecting hellos, distributing the table, and
	// forming the remaining links. Zero means 60s.
	RendezvousTimeout time.Duration
}

func (c NetConfig) validate() error {
	if c.Ranks <= 0 {
		return fmt.Errorf("mp: net: Ranks must be positive, got %d", c.Ranks)
	}
	if c.Rank < 0 || c.Rank >= c.Ranks {
		return fmt.Errorf("mp: net: Rank %d out of [0, %d)", c.Rank, c.Ranks)
	}
	if c.Addr == "" && c.Ranks > 1 {
		return fmt.Errorf("mp: net: Addr required for %d ranks", c.Ranks)
	}
	return nil
}

func (c NetConfig) rendezvousTimeout() time.Duration {
	if c.RendezvousTimeout > 0 {
		return c.RendezvousTimeout
	}
	return 60 * time.Second
}

// rendezvousMesh builds the machine for the local rank of a multi-process
// mesh: fn will run exactly once in this process, at cfg.Rank. procs must
// match cfg.Ranks so algorithm code sees the Comm size it asked for.
func rendezvousMesh(ctx context.Context, procs int, cfg NetConfig, lim Limits) (*machine, error) {
	if procs != cfg.Ranks {
		return nil, fmt.Errorf("mp: net: %d procs requested but the mesh has %d ranks", procs, cfg.Ranks)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	conns, err := formMesh(ctx, cfg)
	if err != nil {
		closeConns(conns)
		return nil, err
	}
	m := newMachine(cfg.Ranks, lim, func(r int) bool { return r == cfg.Rank })
	m.connect(cfg.Rank, conns)
	return m, nil
}

// formMesh returns this rank's connection to every peer (nil for self).
// On error the caller closes whatever was returned.
func formMesh(ctx context.Context, cfg NetConfig) ([]net.Conn, error) {
	n := cfg.Ranks
	conns := make([]net.Conn, n)
	if n == 1 {
		return conns, nil
	}
	deadline := time.Now().Add(cfg.rendezvousTimeout()) //lint:allow nondeterminism transport deadline, never a routing decision

	if cfg.Rank == 0 {
		l, err := net.Listen("tcp", cfg.Addr)
		if err != nil {
			return conns, fmt.Errorf("mp: rendezvous: listen %s: %w", cfg.Addr, err)
		}
		defer l.Close()
		addrs, err := collectHellos(l, conns, deadline, handshakeTimeout)
		if err != nil {
			return conns, err
		}
		table := appendTable(nil, addrTable{Checksum: WireProtocolChecksum, Addrs: addrs})
		for r := 1; r < n; r++ {
			if err := writeConnFrame(conns[r], table, handshakeTimeout); err != nil {
				return conns, fmt.Errorf("mp: rendezvous: send table to rank %d: %w", r, err)
			}
		}
		return conns, nil
	}

	// Rank r > 0: dial rank 0 (retrying while it comes up), advertise a
	// fresh mesh listener on the same interface, and learn where everyone
	// else accepts.
	rc, err := dialRetry(ctx, cfg.Addr, deadline)
	if err != nil {
		return conns, err
	}
	conns[0] = rc
	host, _, err := net.SplitHostPort(rc.LocalAddr().String())
	if err != nil {
		return conns, fmt.Errorf("mp: rendezvous: local address %q: %w", rc.LocalAddr(), err)
	}
	l, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return conns, fmt.Errorf("mp: rendezvous: mesh listener: %w", err)
	}
	defer l.Close()
	if err := sendHello(rc, cfg.Rank, l.Addr().String(), handshakeTimeout); err != nil {
		return conns, fmt.Errorf("mp: rendezvous: hello to rank 0: %w", err)
	}
	// The table arrives only after every rank has checked in, so this
	// read waits out the whole rendezvous window, not one handshake slot.
	body, err := readConnFrame(rc, time.Until(deadline)) //lint:allow nondeterminism transport deadline, never a routing decision
	if err != nil {
		return conns, fmt.Errorf("mp: rendezvous: read table: %w", err)
	}
	table, err := decodeTable(body)
	if err != nil {
		return conns, fmt.Errorf("mp: rendezvous: table: %w", err)
	}
	if table.Checksum != WireProtocolChecksum {
		return conns, fmt.Errorf("mp: rendezvous: protocol checksum mismatch: rank 0 built against %#016x, this build has %#016x", table.Checksum, WireProtocolChecksum)
	}
	if len(table.Addrs) != n {
		return conns, fmt.Errorf("mp: rendezvous: table has %d addresses for %d ranks", len(table.Addrs), n)
	}

	// Mesh links among ranks 1..n-1, the loopback engine's way: accept
	// from every lower rank, then dial every higher one. Dials only start
	// after this rank's own accepts complete, and rank 1 has none, so the
	// chain makes progress without a goroutine per link.
	if err := setListenerDeadline(l, deadline); err != nil {
		return conns, err
	}
	for k := 1; k < cfg.Rank; k++ {
		conn, err := l.Accept()
		if err != nil {
			return conns, fmt.Errorf("mp: rendezvous: accept on rank %d: %w", cfg.Rank, err)
		}
		if _, err := admitHello(conn, handshakeTimeout, conns, 1, cfg.Rank); err != nil {
			return conns, fmt.Errorf("mp: rendezvous: handshake on rank %d: %w", cfg.Rank, err)
		}
	}
	d := net.Dialer{Deadline: deadline}
	for j := cfg.Rank + 1; j < n; j++ {
		conn, err := d.DialContext(ctx, "tcp", table.Addrs[j])
		if err != nil {
			return conns, fmt.Errorf("mp: rendezvous: dial rank %d at %s: %w", j, table.Addrs[j], err)
		}
		conns[j] = conn
		if err := sendHello(conn, cfg.Rank, "", handshakeTimeout); err != nil {
			return conns, fmt.Errorf("mp: rendezvous: hello %d->%d: %w", cfg.Rank, j, err)
		}
	}
	return conns, nil
}

// collectHellos accepts and verifies the n-1 check-ins at rank 0,
// recording each rank's mesh listen address and keeping the connection
// as the 0<->rank mesh link. Every read is deadline-bounded: a dialer
// that connects and never writes, a duplicate or out-of-range rank, or a
// checksum mismatch fails the rendezvous rather than parking it forever.
func collectHellos(l net.Listener, conns []net.Conn, deadline time.Time, hs time.Duration) ([]string, error) {
	n := len(conns)
	addrs := make([]string, n)
	for got := 0; got < n-1; got++ {
		if err := setListenerDeadline(l, deadline); err != nil {
			return nil, err
		}
		conn, err := l.Accept()
		if err != nil {
			return nil, fmt.Errorf("mp: rendezvous: waiting for %d more rank(s): %w", n-1-got, err)
		}
		h, err := admitHello(conn, hs, conns, 1, n)
		if err != nil {
			return nil, fmt.Errorf("mp: rendezvous: handshake: %w", err)
		}
		if h.Addr == "" {
			return nil, fmt.Errorf("mp: rendezvous: rank %d advertised no mesh address", h.Rank)
		}
		addrs[h.Rank] = h.Addr
	}
	return addrs, nil
}

func setListenerDeadline(l net.Listener, deadline time.Time) error {
	tl, ok := l.(*net.TCPListener)
	if !ok {
		return fmt.Errorf("mp: listener %T cannot set a deadline", l)
	}
	if err := tl.SetDeadline(deadline); err != nil {
		return fmt.Errorf("mp: arm accept deadline: %w", err)
	}
	return nil
}

// dialRetry dials addr until it answers or the deadline passes. Rank 0
// may start after its peers, so refusals back off and retry instead of
// failing the run.
func dialRetry(ctx context.Context, addr string, deadline time.Time) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	wait := 5 * time.Millisecond
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		if ctx.Err() != nil {
			return nil, cancelCause(ctx)
		}
		if !time.Now().Before(deadline) { //lint:allow nondeterminism transport deadline, never a routing decision
			return nil, fmt.Errorf("mp: rendezvous: dial %s: gave up after the rendezvous window: %w (%w)", addr, err, ErrDeadline)
		}
		time.Sleep(wait)
		if wait < 500*time.Millisecond {
			wait *= 2
		}
	}
}

package mp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// meshAddr reserves a loopback rendezvous address: bind, record, release.
func meshAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// runMesh executes fn at every rank of an n-rank mesh, one goroutine per
// rank standing in for one OS process: each builds its own engine from
// its own Config, exactly as n separate twgr processes would.
func runMesh(t *testing.T, n int, cfg Config, fn func(Comm) error) []error {
	t.Helper()
	addr := meshAddr(t)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := cfg
			c.Procs = n
			c.Mode = TCP
			c.Net = &NetConfig{Rank: r, Ranks: n, Addr: addr, RendezvousTimeout: 20 * time.Second}
			_, errs[r] = c.Run(fn)
		}(r)
	}
	wg.Wait()
	return errs
}

// meshWorker exercises point-to-point FIFO, a ring pass, collectives and
// barriers — the traffic mix the routing algorithms generate.
func meshWorker(c Comm) error {
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() + c.Size() - 1) % c.Size()
	if c.Rank() == 0 {
		if err := c.Send(next, 1, 1); err != nil {
			return err
		}
	}
	got, err := c.Recv(prev, 1)
	if err != nil {
		return err
	}
	token := got.(int)
	if c.Rank() == 0 {
		if token != c.Size() {
			return fmt.Errorf("ring token = %d, want %d", token, c.Size())
		}
	} else if err := c.Send(next, 1, token+1); err != nil {
		return err
	}

	for phase := 0; phase < 3; phase++ {
		vs, err := Allgather(c, 10+phase, c.Rank()*100+phase)
		if err != nil {
			return err
		}
		for r, v := range vs {
			if v != r*100+phase {
				return fmt.Errorf("phase %d: rank %d contributed %v", phase, r, v)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
	}

	// A FIFO burst 0->last, interleaved with everyone's barrier traffic.
	last := c.Size() - 1
	const burst = 30
	if c.Rank() == 0 {
		for i := 0; i < burst; i++ {
			if err := c.Send(last, 7, i); err != nil {
				return err
			}
		}
	}
	if c.Rank() == last {
		for i := 0; i < burst; i++ {
			got, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if got.(int) != i {
				return fmt.Errorf("burst message %d arrived as %v: FIFO violated", i, got)
			}
		}
	}
	return c.Barrier()
}

func TestNetMeshRoutesTraffic(t *testing.T) {
	for r, err := range runMesh(t, 3, Config{}, meshWorker) {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

func TestNetSingleRank(t *testing.T) {
	// Ranks=1 needs no rendezvous address and no sockets at all.
	cfg := Config{Procs: 1, Mode: TCP, Net: &NetConfig{Rank: 0, Ranks: 1}}
	_, err := cfg.Run(func(c Comm) error {
		if c.Size() != 1 || c.Rank() != 0 {
			return fmt.Errorf("rank/size = %d/%d", c.Rank(), c.Size())
		}
		if err := c.Send(0, 3, 42); err != nil {
			return err
		}
		got, err := c.Recv(0, 3)
		if err != nil {
			return err
		}
		if got.(int) != 42 {
			return fmt.Errorf("self message = %v", got)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNetWorkerErrorReadAsRankLoss(t *testing.T) {
	// A failing rank skips the shutdown barriers and drops its
	// connections; its peers — blocked on messages it will never send —
	// must come back with ErrRankLost, the signal parallel.Run degrades on.
	boom := errors.New("boom")
	errs := runMesh(t, 3, Config{}, func(c Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		_, err := c.Recv(1, 9)
		return err
	})
	if !errors.Is(errs[1], boom) {
		t.Errorf("rank 1 returned %v, want its own error", errs[1])
	}
	for _, r := range []int{0, 2} {
		if !errors.Is(errs[r], ErrRankLost) {
			t.Errorf("rank %d returned %v, want ErrRankLost", r, errs[r])
		}
	}
}

func TestNetChaosCrashSeenAcrossProcesses(t *testing.T) {
	// Chaos composes with the mesh: each process wraps its own rank, and a
	// planned crash at one rank must surface as ErrRankLost at every other
	// process through real socket teardown.
	plan := Plan{Crash: map[int]int{1: 2}}
	errs := runMesh(t, 3, Config{Chaos: &plan}, func(c Comm) error {
		for i := 0; i < 4; i++ {
			if _, err := Allgather(c, i, c.Rank()); err != nil {
				return err
			}
		}
		return nil
	})
	for r, err := range errs {
		if !errors.Is(err, ErrRankLost) {
			t.Errorf("rank %d returned %v, want ErrRankLost", r, err)
		}
	}
}

func TestNetRendezvousDeadline(t *testing.T) {
	// Nothing ever binds the rendezvous address: dialing must give up at
	// the window's end with ErrDeadline, not retry forever.
	cfg := Config{Procs: 2, Mode: TCP, Net: &NetConfig{
		Rank: 1, Ranks: 2, Addr: meshAddr(t), RendezvousTimeout: 300 * time.Millisecond,
	}}
	start := time.Now()
	_, err := cfg.Run(func(Comm) error { return nil })
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("rendezvous without rank 0 = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("rendezvous gave up after %v; the window was 300ms", elapsed)
	}
}

func TestNetRendezvousCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	cfg := Config{Procs: 2, Mode: TCP, Net: &NetConfig{Rank: 1, Ranks: 2, Addr: meshAddr(t)}}
	_, err := cfg.RunContext(ctx, func(Comm) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rendezvous = %v, want context.Canceled", err)
	}
}

// TestRendezvousStalledDialerFails: rank 0's hello collection is the
// accept-side twin of the handshake watchdog — a client that connects and
// never introduces itself must fail the rendezvous, not park it.
func TestRendezvousStalledDialerFails(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		conns := make([]net.Conn, 2)
		_, err := collectHellos(l, conns, time.Now().Add(30*time.Second), 100*time.Millisecond)
		closeConns(conns)
		done <- err
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() // connected, but never writes a hello
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("rendezvous accepted a silent client")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a silent client parked the rendezvous")
	}
}

func TestNetConfigValidation(t *testing.T) {
	if _, err := (Config{Procs: 2, Mode: Inproc, Net: &NetConfig{Rank: 0, Ranks: 2, Addr: "x:1"}}).
		Run(func(Comm) error { return nil }); err == nil {
		t.Error("Net accepted off the TCP engine")
	}
	// Procs is the Comm size algorithm code asked for; it must match the
	// mesh instead of being silently overridden.
	if _, err := (Config{Procs: 3, Mode: TCP, Net: &NetConfig{Rank: 0, Ranks: 2, Addr: "x:1"}}).
		Run(func(Comm) error { return nil }); err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Errorf("procs/ranks mismatch accepted: %v", err)
	}
	bad := []NetConfig{
		{Rank: 0, Ranks: 0},
		{Rank: 2, Ranks: 2, Addr: "x:1"},
		{Rank: -1, Ranks: 2, Addr: "x:1"},
		{Rank: 0, Ranks: 2}, // no Addr
	}
	for _, nc := range bad {
		if err := nc.validate(); err == nil {
			t.Errorf("NetConfig %+v accepted", nc)
		}
	}
}

package mp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The regression tests for the TCP engine's liveness fixes drive a
// two-rank machine over in-memory pipes, so each failure mode (a write
// stalled past its deadline, a socket that cannot arm a deadline, frames
// arriving after an abort) can be staged deterministically.

func pipeMachine(t *testing.T, lim Limits, conn net.Conn) (*machine, *comm) {
	t.Helper()
	m := newMachine(2, lim, everyRank)
	m.connect(0, []net.Conn{1: conn})
	return m, &comm{m: m, rank: 0}
}

// TestSendDeadlineMarksConnectionDead: a send that timed out mid-write
// used to keep the connection's encoder, so the next send appended a
// fresh frame to a stream already holding half of the previous one and
// the peer misdecoded everything after. The connection must be dead from
// the first failed write on.
func TestSendDeadlineMarksConnectionDead(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close() // nothing ever reads b, so writes to a stall
	counters := &FaultCounters{}
	m, c := pipeMachine(t, Limits{SendTimeout: 30 * time.Millisecond, Counters: counters}, a)

	err := c.Send(1, 1, 7)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("stalled send = %v, want ErrDeadline", err)
	}
	if !m.isLost(1) {
		t.Fatal("timed-out write did not mark the peer lost")
	}
	if got := counters.DeadlineMisses.Load(); got != 1 {
		t.Fatalf("DeadlineMisses = %d, want 1", got)
	}
	// Even if the loss marking were cleared, the connection itself must
	// refuse further sends: a partial frame may sit on the wire.
	m.mu.Lock()
	m.lost[1] = false
	m.mu.Unlock()
	start := time.Now()
	err = c.Send(1, 1, 8)
	if !errors.Is(err, ErrRankLost) || !strings.Contains(err.Error(), "connection already failed") {
		t.Fatalf("send on a dead connection = %v, want the fast ErrRankLost refusal", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead-connection send took %v; it must fail without touching the socket", elapsed)
	}
}

// TestSendFailedWriteErrorIsRankLost: a crashed peer's broken pipe can reach
// the writer before the read pump sees the EOF. sendFailed marked the peer
// lost but returned the bare socket error, so a crash run failed on that
// write instead of degrading. The error must wrap ErrRankLost and keep the
// socket error.
func TestSendFailedWriteErrorIsRankLost(t *testing.T) {
	m := newMachine(2, Limits{}, everyRank)
	c := &comm{m: m, rank: 0}
	err := c.sendFailed(1, &net.OpError{Op: "write", Net: "tcp", Err: os.NewSyscallError("write", syscall.EPIPE)})
	if !errors.Is(err, ErrRankLost) || !errors.Is(err, syscall.EPIPE) || errors.Is(err, ErrDeadline) {
		t.Fatalf("send on a broken pipe = %v, want ErrRankLost wrapping EPIPE", err)
	}
	if !m.isLost(1) || m.isLost(0) {
		t.Fatalf("lost = %v, want the peer marked and the writer not", m.lost)
	}
}

// deadlineFailConn wraps a healthy pipe so arming a write deadline fails
// while the write itself would still succeed — the shape of a socket
// that died between sends. Ignoring the arm error would start an
// unbounded write.
type deadlineFailConn struct {
	net.Conn
	err error
}

func (c deadlineFailConn) SetWriteDeadline(time.Time) error { return c.err }

// TestSendDeadlineArmFailureFailsSend: SetWriteDeadline errors used to be
// discarded, silently converting a bounded send into an unbounded one.
func TestSendDeadlineArmFailureFailsSend(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go io.Copy(io.Discard, b) //nolint — drains so the write WOULD succeed if attempted
	armErr := errors.New("socket gone")
	m, c := pipeMachine(t, Limits{SendTimeout: time.Second}, deadlineFailConn{Conn: a, err: armErr})

	err := c.Send(1, 1, 7)
	if err == nil {
		t.Fatal("send succeeded although its write deadline could not be armed")
	}
	if !errors.Is(err, armErr) {
		t.Fatalf("send = %v, want the SetWriteDeadline error surfaced", err)
	}
	if !m.isLost(1) {
		t.Fatal("unarmable deadline did not mark the peer lost")
	}
	if err := c.Send(1, 1, 8); !errors.Is(err, ErrRankLost) {
		t.Fatalf("send after arm failure = %v, want ErrRankLost", err)
	}
}

// TestReadLoopDropsEnvelopesAfterAbort: the read pump used to keep
// queueing arriving envelopes after an abort, growing a mailbox nothing
// would ever drain again while the run unwound.
func TestReadLoopDropsEnvelopesAfterAbort(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	m, _ := pipeMachine(t, Limits{}, a)
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.readLoop(0, 1, a)
	}()

	m.abort(errors.New("boom"))
	frame, err := appendFrame(nil, 1, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := b.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	// The pipe is synchronous, so every frame has reached the reader; give
	// the pump a moment to decode the tail, then the queue must be empty.
	time.Sleep(20 * time.Millisecond)
	box := m.boxes[0]
	box.mu.Lock()
	queued := len(box.queue)
	box.mu.Unlock()
	if queued != 0 {
		t.Fatalf("%d envelope(s) queued after abort; the dead run's mailbox must stay bounded", queued)
	}
	b.Close()
	<-done
}

// TestReadLoopCorruptFrameMarksPeerLost: garbage on a connection is
// attributed to the peer, releasing blocked ranks with ErrRankLost
// instead of letting them wait on a stream that can never resynchronize.
func TestReadLoopCorruptFrameMarksPeerLost(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	m, _ := pipeMachine(t, Limits{}, a)
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.readLoop(0, 1, a)
	}()

	// A length-prefixed frame whose body is not a decodable envelope.
	junk := AppendUint32(nil, 3)
	junk = append(junk, 0xFF, 0xFF, 0xFF)
	if _, err := b.Write(junk); err != nil {
		t.Fatal(err)
	}
	<-done
	if !m.isLost(1) {
		t.Fatal("corrupt frame did not mark the peer lost")
	}
	if err := m.abortErr(); !errors.Is(err, ErrRankLost) {
		t.Fatalf("abort error = %v, want ErrRankLost", err)
	}
}

// chunkCutter passes its first k writes to the connection, then closes it:
// a sending rank killed after k chunks of a frame.
type chunkCutter struct {
	net.Conn
	k int
}

func (c *chunkCutter) Write(p []byte) (int, error) {
	if c.k == 0 {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	c.k--
	return c.Conn.Write(p)
}

// TestReadLoopWriterDiesMidFrame: a peer that dies partway through a
// streamed frame — after the header, or k whole chunks in — is a lost
// connection, not a corrupt frame; the records already decoded do not
// make the reader blame what the stream carried.
func TestReadLoopWriterDiesMidFrame(t *testing.T) {
	big := make([]int32, 3*frameChunk/4+7) // four chunks
	for k := range 4 {
		a, b := net.Pipe()
		m, _ := pipeMachine(t, Limits{}, a)
		done := make(chan struct{})
		go func() {
			defer close(done)
			m.readLoop(0, 1, a)
		}()
		if _, _, err := writeFrame(&chunkCutter{Conn: b, k: k}, nil, 1, 1, big); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("k=%d: cut writer returned %v", k, err)
		}
		<-done
		a.Close()
		err := m.abortErr()
		if !errors.Is(err, ErrRankLost) || !strings.Contains(err.Error(), "lost its connection to rank 1") {
			t.Fatalf("writer killed after %d chunk(s): abort error %v, want a lost connection", k, err)
		}
	}
}

// TestFrameClaimAllocatesOnlyWhatArrives: a length prefix is a claim, not
// an allocation request. The whole-frame reader made a buffer of the
// claimed size before reading it (256 MiB for a prefix of maxFrameLen); a
// link reads the claim into a buffer of at most one chunk and sizes a
// flat payload's slice from its count only once its first records have
// arrived, at most maxReserve bytes' worth. The handshake's hello, read
// from a connection that has not yet said who it is, grows its buffer
// with the bytes that arrive too.
func TestFrameClaimAllocatesOnlyWhatArrives(t *testing.T) {
	n := (maxFrameLen - envelopeLen - 4) / 4
	head := AppendUint32(AppendInt(AppendInt(AppendUint32(nil, maxFrameLen), 1), 1), wireIDInt32s)
	head = AppendUint32(AppendUint32(head, uint32(4+4*n)), uint32(n))
	oneChunk := append(append([]byte(nil), head...), make([]byte, frameChunk)...)
	for _, tc := range []struct {
		name   string
		stream []byte
		most   uint64
	}{
		{"length prefix alone", AppendUint32(nil, maxFrameLen), 16 << 10},
		{"envelope head and count", head, frameChunk + 16<<10},
		{"one chunk of records", oneChunk, 2*frameChunk + maxReserve},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := newFrameReader(bytes.NewReader(tc.stream)).next()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrWire) {
			t.Fatalf("%s: err %v, want a truncated frame", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.most {
			t.Errorf("%s: reading the claim allocated %d bytes, want at most %d", tc.name, got, tc.most)
		}
	}

	a, b := net.Pipe()
	defer a.Close()
	go func() {
		b.Write(AppendUint32(nil, maxFrameLen))
		b.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := recvHello(a, 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrWire) {
		t.Fatalf("hello length prefix alone: err %v, want a truncated frame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("hello length prefix alone: reading the claim allocated %d bytes, want at most %d", got, 16<<10)
	}
}

// TestReadLoopForeignSourceMarksPeerLost: the source rank inside a frame
// is the sender's claim. A well-formed frame claiming any rank but the
// connection's peer used to be queued as claimed — feeding another rank's
// stream, or parked under a source nothing receives from; it is stream
// corruption, attributed to the peer like any other.
func TestReadLoopForeignSourceMarksPeerLost(t *testing.T) {
	for _, claimed := range []int{0, 2, -1} {
		a, b := net.Pipe()
		m := newMachine(3, Limits{}, everyRank)
		m.connect(0, []net.Conn{1: a})
		done := make(chan struct{})
		go func() {
			defer close(done)
			m.readLoop(0, 1, a)
		}()
		frame, err := appendFrame(nil, claimed, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Write(frame); err != nil {
			t.Fatal(err)
		}
		<-done
		a.Close()
		b.Close()
		if !m.isLost(1) {
			t.Fatalf("claimed source %d: the connection's peer was not marked lost", claimed)
		}
		err = m.abortErr()
		if !errors.Is(err, ErrRankLost) {
			t.Fatalf("claimed source %d: abort error = %v, want ErrRankLost", claimed, err)
		}
		for _, want := range []string{"from rank 1", fmt.Sprintf("source rank %d", claimed)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("claimed source %d: error %q does not name %q", claimed, err, want)
			}
		}
		for rank, box := range m.boxes {
			if len(box.queue) != 0 {
				t.Fatalf("claimed source %d: the frame was queued at rank %d", claimed, rank)
			}
		}
	}
}

// TestAdmitHello drives the one hello-accepting helper over in-memory
// pipes: a rank outside the range the listener expects (negative and past
// the end included) or one already admitted is refused with an error
// naming it, the connection closed and the table untouched. The loopback
// accept loop used to index its peer table with this value unchecked.
func TestAdmitHello(t *testing.T) {
	admit := func(conns []net.Conn, rank, lo, hi int) (net.Conn, error) {
		a, b := net.Pipe()
		defer b.Close()
		go sendHello(b, rank, "", time.Second) // error unchecked: a refused hello is closed under the writer
		_, err := admitHello(a, time.Second, conns, lo, hi)
		return a, err
	}
	conns := make([]net.Conn, 4)
	first, err := admit(conns, 2, 1, 4)
	if err != nil || conns[2] != first {
		t.Fatalf("valid hello: err %v, slot %v", err, conns[2])
	}
	defer first.Close()
	for _, tc := range []struct {
		rank int
		want string
	}{
		{4, "rank 4"}, {99, "rank 99"}, {-1, "rank -1"},
		{0, "rank 0"}, // in the table, outside what this listener expects
		{2, "rank 2 introduced itself twice"},
	} {
		conn, err := admit(conns, tc.rank, 1, 4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("hello from rank %d: error %v, want one naming %q", tc.rank, err, tc.want)
		}
		if _, werr := conn.Write([]byte{0}); werr == nil {
			t.Errorf("hello from rank %d: refused connection left open", tc.rank)
		}
		if conns[2] != first || conns[0] != nil || conns[1] != nil || conns[3] != nil {
			t.Fatalf("hello from rank %d: table changed: %v", tc.rank, conns)
		}
	}
}

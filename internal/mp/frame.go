package mp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"time"
)

// The TCP engines' socket framing. Every message travels as one frame:
//
//	u32-LE body length | body
//
// where an envelope body is
//
//	i64 src | i64 tag | AppendAny payload (u32 wire id | u32 len | bytes)
//
// so every payload crosses the socket through its parroute-mpwire/1
// codec; a type without one fails the Send before a byte is written. The
// connection-setup hello and the rendezvous address table reuse the same
// length-prefixed outer frame with their own magic strings, so one
// bounded reader serves both setup and steady state.

const (
	// frameHeaderLen is the length prefix: a little-endian u32.
	frameHeaderLen = 4
	// maxFrameLen bounds a single frame body. A length prefix beyond it
	// is treated as stream corruption rather than an allocation request;
	// the largest real payloads (full-circuit net batches) stay far under.
	maxFrameLen = 1 << 28
)

// appendFrame appends one framed envelope to buf. Every payload prices its
// body (elemSize), so room for the frame is reserved once up front instead
// of by append-doubling under the codec; the price is a hint, not a bound —
// a payload that under-prices itself still encodes, it only grows buf again.
func appendFrame(buf []byte, src, tag int, v any) ([]byte, error) {
	// Length prefix, src and tag, the payload's id and length, and the
	// element count the flat batch prices leave out.
	buf = slices.Grow(buf, frameHeaderLen+8+8+elemHeader+4+elemSize(v))
	lenAt := len(buf)
	buf = AppendUint32(buf, 0) // length, patched below
	buf = AppendInt(buf, src)
	buf = AppendInt(buf, tag)
	buf, err := AppendAny(buf, v)
	if err != nil {
		return nil, err
	}
	body := len(buf) - lenAt - frameHeaderLen
	if body > maxFrameLen {
		return nil, wireErr("frame body %d exceeds %d byte(s)", body, maxFrameLen)
	}
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(body))
	return buf, nil
}

// decodeFrameBody decodes an envelope body written by appendFrame. The
// body must be consumed exactly; trailing bytes mean a framing bug.
func decodeFrameBody(body []byte) (src, tag int, v any, err error) {
	src, rest, err := WireInt(body)
	if err != nil {
		return 0, 0, nil, err
	}
	tag, rest, err = WireInt(rest)
	if err != nil {
		return 0, 0, nil, err
	}
	v, rest, err = WireAny(rest)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(rest) != 0 {
		return 0, 0, nil, wireErr("frame left %d undecoded byte(s)", len(rest))
	}
	return src, tag, v, nil
}

// readFrame reads one length-prefixed frame body from r, reusing scratch
// when it is large enough. io.EOF before the first header byte is a clean
// close; a header cut short surfaces as io.ErrUnexpectedEOF.
func readFrame(r io.Reader, scratch []byte) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, wireErr("truncated frame header")
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrameLen {
		return nil, wireErr("frame length %d exceeds %d byte(s)", n, maxFrameLen)
	}
	body := scratch
	if uint32(cap(body)) < n {
		body = make([]byte, n)
	}
	body = body[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, wireErr("truncated frame: %v", err)
	}
	return body, nil
}

// ---- connection-setup frames ----

// WireProtocolChecksum is the FNV-1a/64 hash of the generated
// mp_protocol.json bytes — the build's protocol fingerprint. The TCP
// rendezvous hello carries it so processes built against different
// protocol revisions refuse to form a mesh instead of misdecoding each
// other's frames. Assigned by the generated init in mpwire_gen.go; it
// cannot live there as a constant because mpgen rescans the module with
// generated files excluded, so hand-written code may not reference
// generated symbols.
var WireProtocolChecksum uint64

const (
	// helloMagic opens the hello a connecting endpoint sends first.
	helloMagic = "parroute-mp/hello"
	// tableMagic opens rank 0's rendezvous reply: the mesh address table.
	tableMagic = "parroute-mp/table"
	// setupVersion is the handshake revision; endpoints refuse mismatches.
	setupVersion = 1
)

// hello is the first frame on every new connection: who is dialing, built
// against which protocol revision, and (rendezvous only) where the dialer
// accepts its own mesh connections.
type hello struct {
	Checksum uint64 // WireProtocolChecksum of the dialer's build
	Rank     int
	Addr     string // dialer's mesh listen address; "" on mesh handshakes
}

func appendHello(buf []byte, h hello) []byte {
	buf = AppendString(buf, helloMagic)
	buf = AppendUint32(buf, setupVersion)
	buf = AppendUint64(buf, h.Checksum)
	buf = AppendInt(buf, h.Rank)
	return AppendString(buf, h.Addr)
}

func decodeHello(body []byte) (hello, error) {
	var h hello
	magic, rest, err := WireString(body)
	if err != nil {
		return h, err
	}
	if magic != helloMagic {
		return h, wireErr("hello magic %q, want %q", magic, helloMagic)
	}
	version, rest, err := WireUint32(rest)
	if err != nil {
		return h, err
	}
	if version != setupVersion {
		return h, wireErr("hello version %d, want %d", version, setupVersion)
	}
	if h.Checksum, rest, err = WireUint64(rest); err != nil {
		return h, err
	}
	if h.Rank, rest, err = WireInt(rest); err != nil {
		return h, err
	}
	if h.Addr, rest, err = WireString(rest); err != nil {
		return h, err
	}
	if len(rest) != 0 {
		return h, wireErr("hello left %d undecoded byte(s)", len(rest))
	}
	return h, nil
}

// addrTable is rank 0's rendezvous reply: where every rank accepts mesh
// connections (index = rank; rank 0's slot is unused).
type addrTable struct {
	Checksum uint64
	Addrs    []string
}

func appendTable(buf []byte, t addrTable) []byte {
	buf = AppendString(buf, tableMagic)
	buf = AppendUint32(buf, setupVersion)
	buf = AppendUint64(buf, t.Checksum)
	buf = AppendUint32(buf, uint32(len(t.Addrs)))
	for _, a := range t.Addrs {
		buf = AppendString(buf, a)
	}
	return buf
}

func decodeTable(body []byte) (addrTable, error) {
	var t addrTable
	magic, rest, err := WireString(body)
	if err != nil {
		return t, err
	}
	if magic != tableMagic {
		return t, wireErr("table magic %q, want %q", magic, tableMagic)
	}
	version, rest, err := WireUint32(rest)
	if err != nil {
		return t, err
	}
	if version != setupVersion {
		return t, wireErr("table version %d, want %d", version, setupVersion)
	}
	if t.Checksum, rest, err = WireUint64(rest); err != nil {
		return t, err
	}
	n, rest, err := WireCount(rest, 1)
	if err != nil {
		return t, err
	}
	t.Addrs = make([]string, 0, n)
	for i := 0; i < n; i++ {
		var a string
		if a, rest, err = WireString(rest); err != nil {
			return t, err
		}
		t.Addrs = append(t.Addrs, a)
	}
	if len(rest) != 0 {
		return t, wireErr("table left %d undecoded byte(s)", len(rest))
	}
	return t, nil
}

// writeConnFrame writes body as one frame, bounding the write by timeout
// when positive. Used only during connection setup (steady-state sends go
// through comm.Send, which owns its link's write serialization).
func writeConnFrame(conn net.Conn, body []byte, timeout time.Duration) error {
	buf := make([]byte, 0, frameHeaderLen+len(body))
	buf = AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	if timeout > 0 {
		deadline := time.Now().Add(timeout) //lint:allow nondeterminism transport deadline, never a routing decision
		if err := conn.SetWriteDeadline(deadline); err != nil {
			return err
		}
		defer conn.SetWriteDeadline(time.Time{})
	}
	_, err := conn.Write(buf)
	return err
}

// readConnFrame reads one frame body, bounding the read by timeout when
// positive — the handshake watchdog: a peer that connects but never
// writes fails the setup instead of parking it forever.
func readConnFrame(conn net.Conn, timeout time.Duration) ([]byte, error) {
	if timeout > 0 {
		deadline := time.Now().Add(timeout) //lint:allow nondeterminism transport deadline, never a routing decision
		if err := conn.SetReadDeadline(deadline); err != nil {
			return nil, err
		}
		defer conn.SetReadDeadline(time.Time{})
	}
	return readFrame(conn, nil)
}

// sendHello introduces rank on a fresh connection, bounded by timeout.
func sendHello(conn net.Conn, rank int, addr string, timeout time.Duration) error {
	h := hello{Checksum: WireProtocolChecksum, Rank: rank, Addr: addr}
	return writeConnFrame(conn, appendHello(nil, h), timeout)
}

// recvHello reads and verifies a peer's hello, bounded by timeout. A
// checksum mismatch means the peer was built against a different
// mp_protocol.json revision; forming a mesh with it would misdecode every
// frame, so the handshake refuses it up front.
func recvHello(conn net.Conn, timeout time.Duration) (hello, error) {
	body, err := readConnFrame(conn, timeout)
	if err != nil {
		return hello{}, err
	}
	h, err := decodeHello(body)
	if err != nil {
		return hello{}, err
	}
	if h.Checksum != WireProtocolChecksum {
		return hello{}, fmt.Errorf("mp: protocol checksum mismatch: peer rank %d built against %#016x, this build has %#016x (regenerate with mpgen and rebuild every rank)",
			h.Rank, h.Checksum, WireProtocolChecksum)
	}
	return h, nil
}

// admitHello reads the hello a freshly accepted connection must open with
// and installs conn as the link to the rank it names — every accept loop's
// one way in. That rank is data straight off a socket: it has to lie in
// [lo, hi), the ranks this listener expects, and must not hold a slot of
// conns already. Anything else closes conn and names the offender.
func admitHello(conn net.Conn, timeout time.Duration, conns []net.Conn, lo, hi int) (hello, error) {
	h, err := recvHello(conn, timeout)
	switch {
	case err != nil:
	case h.Rank < lo || h.Rank >= hi:
		err = fmt.Errorf("mp: hello from rank %d, want a rank in [%d, %d)", h.Rank, lo, hi)
	case conns[h.Rank] != nil:
		err = fmt.Errorf("mp: rank %d introduced itself twice", h.Rank)
	}
	if err != nil {
		conn.Close()
		return hello{}, err
	}
	conns[h.Rank] = conn
	return h, nil
}

package mp

import (
	"bufio"
	_ "embed"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net"
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
// length-prefixed outer frame with their own magic strings.
//
// No side holds a frame whole. A flat payload — a record count, then
// fixed-width records: the []int32 builtin and every payload batch — is
// encoded a record range at a time into its link's buffer, which is
// written each time it holds frameChunk bytes, and is read back a chunk at
// a time and decoded straight into the payload's typed slice. Every other
// payload is small and travels as a single chunk.

const (
	// frameHeaderLen is the length prefix: a little-endian u32.
	frameHeaderLen = 4
	// maxFrameLen bounds a single frame body. A length prefix beyond it
	// is treated as stream corruption rather than an allocation request;
	// the largest real payloads (full-circuit net batches) stay far under.
	maxFrameLen = 1 << 28
	// envelopeLen is an envelope body's fixed head: src, tag, and the
	// payload's wire id and length.
	envelopeLen = 8 + 8 + elemHeader
	// frameChunk bounds the bytes of one frame a link buffers on either
	// side of the socket.
	frameChunk = 64 << 10
	// maxReserve bounds, in encoded bytes, the typed slice a reader sizes
	// from a record count before the records arrive.
	maxReserve = 4 << 20
)

// writeFrame writes one envelope to w as a frame, encoded into buf: a flat
// payload's records a range at a time, buf written whenever the next
// record would not fit a chunk, and any other payload whole. It returns
// buf emptied for the link to keep (nil if a whole payload grew it past a
// chunk) and whether w was written to; until it was, an error is the
// payload's and the stream is clean.
func writeFrame(w io.Writer, buf []byte, src, tag int, v any) (kept []byte, wrote bool, err error) {
	// The []int32 builtin stays in ints: boxed into rec it would cost a
	// heap object per grid or occupancy sync message.
	var rec records
	var ints int32s
	var id uint32
	n, width := 0, 0
	switch p := v.(type) {
	case []int32:
		ints, id = p, wireIDInt32s
		n, width = ints.WireRecords()
	case records:
		if c := codecByType(v); c != nil && c.width > 0 {
			rec, id = p, c.id
			n, width = p.WireRecords()
		}
	}
	flat, body := id != 0, envelopeLen+4+n*width
	if !flat {
		body = envelopeLen + 4 + elemSize(v) // a price; the encoding sets it
	}
	if need := min(frameHeaderLen+body, frameChunk); cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = AppendInt(AppendInt(AppendUint32(buf, uint32(body)), src), tag)
	if flat {
		buf = AppendUint32(AppendUint32(AppendUint32(buf, id), uint32(body-envelopeLen)), uint32(n))
	} else if buf, err = AppendAny(buf, v); err != nil {
		return nil, false, err
	} else {
		body = len(buf) - frameHeaderLen
		binary.LittleEndian.PutUint32(buf, uint32(body))
	}
	if body > maxFrameLen {
		return nil, false, wireErr("frame body %d exceeds %d byte(s)", body, maxFrameLen)
	}
	for lo := 0; lo < n; {
		if len(buf)+width > frameChunk {
			if _, err := w.Write(buf); err != nil {
				return buf[:0], true, err
			}
			buf = buf[:0]
		}
		hi := min(n, lo+max(1, (frameChunk-len(buf))/width))
		if rec != nil {
			buf = rec.AppendWireRecords(buf, lo, hi)
		} else {
			buf = ints.AppendWireRecords(buf, lo, hi)
		}
		lo = hi
	}
	_, err = w.Write(buf)
	if cap(buf) > frameChunk {
		return nil, true, err
	}
	return buf[:0], true, err
}

// readFrameLen reads a frame's length prefix into hdr. io.EOF before the
// first byte is a clean close; a prefix cut short, or one past
// maxFrameLen, is an ErrWire.
func readFrameLen(r io.Reader, hdr *[frameHeaderLen]byte) (int, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, wireErr("truncated frame header")
		}
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrameLen {
		return 0, wireErr("frame length %d exceeds %d byte(s)", n, maxFrameLen)
	}
	return int(n), nil
}

// frameReader reads envelopes off one connection through a bufio reader
// of the default size and buf, which grows to at most frameChunk bytes.
// failed reports whether the last error came from the stream itself (a
// peer gone mid-frame) rather than from what the stream carried.
type frameReader struct {
	r      *bufio.Reader
	buf    []byte
	hdr    [frameHeaderLen]byte
	left   int // body bytes of the current frame not yet read
	failed bool
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// take reads the next n bytes of the frame body into buf; a whole
// payload past a chunk gets a buffer of its own. A body too short for
// them is malformed; a stream that ends first has failed.
func (fr *frameReader) take(n int) ([]byte, error) {
	if n > fr.left {
		return nil, wireErr("frame body ends %d byte(s) short", n-fr.left)
	}
	fr.left -= n
	b := fr.buf
	if cap(b) < n {
		if b = make([]byte, n); n <= frameChunk {
			fr.buf = b
		}
	}
	if _, err := io.ReadFull(fr.r, b[:n]); err != nil {
		fr.failed = true
		return nil, wireErr("truncated frame: %v", err)
	}
	return b[:n], nil
}

// next reads one envelope: a flat payload a chunk of records at a time,
// any other one whole, decoded as WireAny would.
func (fr *frameReader) next() (src, tag int, v any, err error) {
	fr.failed = true
	if fr.left, err = readFrameLen(fr.r, &fr.hdr); err != nil {
		return 0, 0, nil, err
	}
	fr.failed = false
	head, err := fr.take(envelopeLen)
	if err != nil {
		return 0, 0, nil, err
	}
	src, tag = int(int64(binary.LittleEndian.Uint64(head))), int(int64(binary.LittleEndian.Uint64(head[8:])))
	id, n := binary.LittleEndian.Uint32(head[16:]), binary.LittleEndian.Uint32(head[20:])
	switch c := codecByID(id); {
	case int64(n) != int64(fr.left):
		err = wireErr("any body length %d, frame holds %d byte(s)", n, fr.left)
	case id == wireIDInt32s:
		var x int32s
		err = fr.records(4, x.DecodeWireRecords)
		v = []int32(x)
	case c != nil && c.width > 0:
		v, err = c.stream(fr)
	default:
		var body []byte
		if body, err = fr.take(fr.left); err == nil {
			v, err = decodeAnyBody(id, body)
		}
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return src, tag, v, nil
}

// records decodes a flat payload of width-byte records with decode, a
// chunk at a time, into a slice with room for at most maxReserve bytes'
// worth before they arrive. decode is called at least once, so an empty
// batch decodes to an empty slice, as WireAny gives.
func (fr *frameReader) records(width int, decode func(data []byte, reserve int) error) error {
	cnt, err := fr.take(4)
	if err != nil {
		return err
	}
	n := int(binary.LittleEndian.Uint32(cnt))
	if int64(n)*int64(width) != int64(fr.left) {
		return wireErr("count %d of %d-byte elements, frame holds %d byte(s)", n, width, fr.left)
	}
	for reserve := min(n, maxReserve/width); ; {
		k := min(n, frameChunk/width)
		data, err := fr.take(k * width)
		if err == nil {
			err = decode(data, reserve)
		}
		if n -= k; err != nil || n == 0 {
			return err
		}
	}
}

// ---- connection-setup frames ----

// WireProtocolChecksum is the build's protocol fingerprint: FNV-1a/64
// over the protocol's own source, this package's wire.go (the builtin ids
// and the wire primitives) followed by what each payload package hands
// AddProtocolSource from its init (its tags, payload types and codecs).
// The TCP rendezvous hello carries it, so processes built from different
// protocol revisions refuse to form a mesh instead of misdecoding each
// other's frames. It is complete once package initialization is.
var WireProtocolChecksum uint64

//go:embed wire.go
var wireSource []byte

// protocolHash is the FNV-1a state WireProtocolChecksum is read from.
var protocolHash = fnv.New64a()

func init() { AddProtocolSource(wireSource) }

// AddProtocolSource folds a payload package's protocol source into
// WireProtocolChecksum. Call it from the init that registers the
// package's payloads, with the source files that define them.
func AddProtocolSource(src ...[]byte) {
	for _, s := range src {
		_, _ = protocolHash.Write(s) // a hash.Hash never returns an error
	}
	WireProtocolChecksum = protocolHash.Sum64()
}

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
	var hdr [frameHeaderLen]byte
	n, err := readFrameLen(conn, &hdr)
	if err != nil {
		return nil, err
	}
	// The length is the peer's claim, made before it has said who it is:
	// the buffer grows with the bytes that arrive, not with the claim.
	body, err := io.ReadAll(io.LimitReader(conn, int64(n)))
	if err == nil && len(body) < n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, wireErr("truncated frame: %v", err)
	}
	return body, nil
}

// sendHello introduces rank on a fresh connection, bounded by timeout.
func sendHello(conn net.Conn, rank int, addr string, timeout time.Duration) error {
	h := hello{Checksum: WireProtocolChecksum, Rank: rank, Addr: addr}
	return writeConnFrame(conn, appendHello(nil, h), timeout)
}

// recvHello reads and verifies a peer's hello, bounded by timeout. A
// checksum mismatch means the peer was built from a different protocol
// revision; forming a mesh with it would misdecode every frame, so the
// handshake refuses it up front.
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
		return hello{}, fmt.Errorf("mp: protocol checksum mismatch: peer rank %d built against %#016x, this build has %#016x (rebuild every rank from one source tree)",
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

package mp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	msg := u32Run{42, 2}
	stream, err := appendFrame(nil, 3, 17, msg)
	if err != nil {
		t.Fatal(err)
	}
	// A second frame on the same stream: a barrier token on a reserved
	// engine tag.
	stream, err = appendFrame(stream, 1, tagBarrier, true)
	if err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(stream)
	body, err := readFrame(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, tag, v, err := decodeFrameBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if src != 3 || tag != 17 {
		t.Fatalf("frame 1 header = src %d tag %d", src, tag)
	}
	if !reflect.DeepEqual(v, msg) {
		t.Fatalf("frame 1 payload = %#v", v)
	}
	// The second read reuses the first body as scratch.
	body, err = readFrame(r, body)
	if err != nil {
		t.Fatal(err)
	}
	src, tag, v, err = decodeFrameBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if src != 1 || tag != tagBarrier || v != true {
		t.Fatalf("frame 2 = src %d tag %d payload %#v", src, tag, v)
	}
	if _, err := readFrame(r, body); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

// u32Run is a test payload whose codec appends each element on its own,
// priced exactly; cheapRun is the same codec priced at nothing.
type u32Run []uint32

func (p u32Run) WireSize() int { return 4 * len(p) }

func (p u32Run) AppendWire(buf []byte) ([]byte, error) {
	buf = AppendUint32(buf, uint32(len(p)))
	for _, x := range p {
		buf = AppendUint32(buf, x)
	}
	return buf, nil
}

func (p *u32Run) DecodeWire(data []byte) ([]byte, error) {
	n, rest, err := WireCount(data, 4)
	if err != nil {
		return nil, err
	}
	*p = make(u32Run, n)
	for i := range *p {
		(*p)[i], rest, _ = WireUint32(rest)
	}
	return rest, nil
}

type cheapRun struct{ u32Run }

func (cheapRun) WireSize() int { return 0 }

// flagRun is a flat test payload: it has only the record trio, as the
// payload batches do, with 5-byte records whose bool byte must be 0 or 1.
type flagRun []flagRec

type flagRec struct {
	N  uint32
	On bool
}

func (p flagRun) WireRecords() (int, int) { return len(p), 5 }

func (p flagRun) AppendWireRecords(buf []byte, lo, hi int) []byte {
	for _, r := range p[lo:hi] {
		buf = AppendBool(AppendUint32(buf, r.N), r.On)
	}
	return buf
}

func (p *flagRun) DecodeWireRecords(data []byte, reserve int) error {
	if *p == nil {
		*p = make(flagRun, 0, reserve)
	}
	for ; len(data) >= 5; data = data[5:] {
		on, _, err := WireBool(data[4:])
		if err != nil {
			return err
		}
		*p = append(*p, flagRec{N: binary.LittleEndian.Uint32(data), On: on})
	}
	return nil
}

// u32RunWireID is u32Run's test-only wire id, far above the payloads'.
const u32RunWireID = 1 << 20

func init() {
	Register[u32Run](u32RunWireID)
	Register[cheapRun](u32RunWireID + 1)
	Register[flagRun](u32RunWireID + 2)
}

// TestFlatPayloadIsItsRecords: a type with only the record trio crosses
// AppendAny/WireAny as a u32 count and then its records, a streamed frame
// carries the same body, DecodeBody hands back what follows it, and the
// Virtual engine prices it at n × width.
func TestFlatPayloadIsItsRecords(t *testing.T) {
	for _, p := range []flagRun{{}, {{7, true}}, {{1, false}, {2, true}, {1 << 31, true}}} {
		body := AppendUint32(nil, uint32(len(p)))
		for _, r := range p {
			body = AppendBool(AppendUint32(body, r.N), r.On)
		}
		enc, err := AppendAny(nil, p)
		if err != nil || !bytes.Equal(enc[elemHeader:], body) {
			t.Fatalf("AppendAny(%v) = %x (err %v), want body %x", p, enc, err, body)
		}
		if got, rest, err := WireAny(enc); err != nil || len(rest) != 0 || !reflect.DeepEqual(got, p) {
			t.Fatalf("WireAny(%x) = %#v, %d byte(s) left (err %v), want %#v", enc, got, len(rest), err, p)
		}
		var frame bytes.Buffer
		if _, _, err := writeFrame(&frame, nil, 1, 2, p); err != nil || !bytes.Equal(frame.Bytes()[frameHeaderLen+16:], enc) {
			t.Fatalf("streamed frame of %v = %x (err %v), want payload %x", p, frame.Bytes(), err, enc)
		}
		if got, rest, err := DecodeBody[flagRun](append(body, 0xAA)); err != nil || !reflect.DeepEqual(got, p) || !bytes.Equal(rest, []byte{0xAA}) {
			t.Fatalf("DecodeBody = %#v rest %x (err %v), want %#v rest aa", got, rest, err, p)
		}
		if got, want := payloadSize(p), frameOverhead+5*len(p); got != want {
			t.Fatalf("%d records priced at %d, want %d", len(p), got, want)
		}
	}
	if _, _, err := DecodeBody[flagRun](AppendUint32(nil, 1<<30)); !errors.Is(err, ErrWire) {
		t.Fatalf("a count past the input decoded: %v", err)
	}
}

// TestRegisterRefusesUncodedType: a type that is neither a flat payload
// nor a Payload panics at registration, naming the type.
func TestRegisterRefusesUncodedType(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "mp.uncodedPayload") || !strings.Contains(msg, "neither") {
			t.Fatalf("Register[uncodedPayload] panicked with %q, want the type named", msg)
		}
	}()
	Register[uncodedPayload](u32RunWireID + 3)
}

// TestLinkBuffersStayBounded: a link buffers at most one chunk of a frame
// on either side. Streaming a frame many chunks long leaves the writer's
// kept buffer at one chunk and costs it no allocation once the buffer
// exists, not even a box for the []int32; a small frame sizes a fresh link's buffer to itself, not to a
// chunk; and a payload that under-prices itself still streams to the
// reference bytes.
func TestLinkBuffersStayBounded(t *testing.T) {
	big := make([]int32, 5*frameChunk/4)
	for i := range big {
		big[i] = int32(i)
	}
	var boxed any = big // boxing allocates: keep it out of the count
	buf, _, err := writeFrame(io.Discard, nil, 0, 1, boxed)
	if err != nil || cap(buf) != frameChunk {
		t.Fatalf("a %d-byte frame left a %d-byte link buffer (err %v), want one chunk", 4*len(big), cap(buf), err)
	}
	if n := testing.AllocsPerRun(10, func() {
		buf, _, _ = writeFrame(io.Discard, buf, 0, 1, boxed)
	}); n != 0 {
		t.Fatalf("streaming %d int32s through a link's buffer took %v allocations", len(big), n)
	}
	small, _, err := writeFrame(io.Discard, nil, 0, tagBarrier, true)
	if err != nil || cap(small) > 64 {
		t.Fatalf("a barrier token left a %d-byte buffer (err %v)", cap(small), err)
	}
	stream := append(appendFrameT(t, 2, 9, big), appendFrameT(t, 2, 9, true)...)
	fr := newFrameReader(bytes.NewReader(stream))
	for range 2 {
		if _, _, _, err := fr.next(); err != nil || cap(fr.buf) > frameChunk {
			t.Fatalf("reader chunk buffer %d bytes (err %v), want at most %d", cap(fr.buf), err, frameChunk)
		}
	}
	cheap := cheapRun{make(u32Run, 300)}
	if priced := elemSize(cheap); priced >= 4*300 {
		t.Fatalf("cheap payload priced at %d: not an under-priced input", priced)
	}
	var got bytes.Buffer
	if _, _, err := writeFrame(&got, nil, 2, 9, cheap); err != nil || !bytes.Equal(got.Bytes(), appendFrameT(t, 2, 9, cheap)) {
		t.Fatalf("an under-priced payload streams differently from the reference (err %v)", err)
	}
}

// appendFrameT is appendFrame for values that must encode.
func appendFrameT(t testing.TB, src, tag int, v any) []byte {
	t.Helper()
	frame, err := appendFrame(nil, src, tag, v)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestWarmLinkSendsInt32sWithoutAllocating: a net-wise grid or occupancy
// sync is a []int32 sent over a TCP link that already carried one. Once
// the caller has boxed it for Send, the send allocates nothing: no box of
// the slice as a flat payload, no buffer, no deadline state.
func TestWarmLinkSendsInt32sWithoutAllocating(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if peer, err := ln.Accept(); err == nil {
			_, _ = io.Copy(io.Discard, peer)
			peer.Close()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(2, Limits{SendTimeout: time.Minute}, func(rank int) bool { return rank == 0 })
	m.connect(0, []net.Conn{nil, conn})
	c := &comm{m: m, rank: 0}
	deltas := make([]int32, 2*frameChunk/4+17) // three chunks
	var boxed any = deltas
	if err := c.Send(1, 5, boxed); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := c.Send(1, 5, boxed); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a warm link's send of %d int32s took %v allocations, want 0", len(deltas), n)
	}
	conn.Close()
	<-drained
}

func TestFrameCanonicalReencode(t *testing.T) {
	// A decoded frame must re-encode byte-identically: the registered
	// payload takes its codec again.
	frame, err := appendFrame(nil, 0, 5, u32Run{7, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	src, tag, v, err := decodeFrameBody(frame[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	re, err := appendFrame(nil, src, tag, v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, re) {
		t.Fatalf("re-encode differs:\n got %x\nwant %x", re, frame)
	}
}

func TestFrameTruncation(t *testing.T) {
	frame, err := appendFrame(nil, 0, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"cut header", frame[:2]},
		{"cut body", frame[:len(frame)-3]},
		{"oversized length prefix", AppendUint32(nil, maxFrameLen+1)},
	}
	for _, tc := range cases {
		if _, err := readFrame(bytes.NewReader(tc.data), nil); !errors.Is(err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", tc.name, err)
		}
	}
	// Exhausted stream before any header byte is the clean close, not an
	// error: that is how readLoop tells teardown from corruption.
	if _, err := readFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Errorf("empty stream = %v, want io.EOF", err)
	}
	// Trailing bytes inside a body mean a framing bug — in an envelope
	// and in the two setup frames alike.
	body := append(append([]byte{}, frame[frameHeaderLen:]...), 0)
	if _, _, _, err := decodeFrameBody(body); !errors.Is(err, ErrWire) {
		t.Errorf("trailing body byte accepted: %v", err)
	}
	if _, err := decodeHello(append(appendHello(nil, hello{Rank: 1, Addr: "a:1"}), 0)); !errors.Is(err, ErrWire) {
		t.Errorf("hello with trailing garbage accepted: %v", err)
	}
	if _, err := decodeTable(append(appendTable(nil, addrTable{Addrs: []string{"", "a:1"}}), 0)); !errors.Is(err, ErrWire) {
		t.Errorf("table with trailing garbage accepted: %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := hello{Checksum: WireProtocolChecksum, Rank: 3, Addr: "127.0.0.1:9999"}
	got, err := decodeHello(appendHello(nil, h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("hello round trip = %+v, want %+v", got, h)
	}

	bad := appendHello(nil, h)
	bad[4] ^= 0xFF // first magic byte, after the string length prefix
	if _, err := decodeHello(bad); err == nil {
		t.Error("corrupted hello magic accepted")
	}
	wrongVersion := AppendUint32(AppendString(nil, helloMagic), setupVersion+1)
	wrongVersion = AppendString(AppendInt(AppendUint64(wrongVersion, 1), 2), "")
	if _, err := decodeHello(wrongVersion); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future hello version accepted: %v", err)
	}
}

func TestTableRoundTrip(t *testing.T) {
	tbl := addrTable{Checksum: WireProtocolChecksum, Addrs: []string{"", "10.0.0.2:41000", "10.0.0.3:41002"}}
	got, err := decodeTable(appendTable(nil, tbl))
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum != tbl.Checksum || !reflect.DeepEqual(got.Addrs, tbl.Addrs) {
		t.Fatalf("table round trip = %+v, want %+v", got, tbl)
	}
	enc := appendTable(nil, tbl)
	if _, err := decodeTable(enc[:len(enc)-2]); !errors.Is(err, ErrWire) {
		t.Errorf("truncated table accepted: %v", err)
	}
	if _, err := decodeTable(appendHello(nil, hello{})); err == nil {
		t.Error("hello decoded as a table")
	}
}

func TestProtocolChecksumAssigned(t *testing.T) {
	// Package initialization must have stamped the build's protocol
	// fingerprint; a zero checksum would let mismatched builds mesh.
	// internal/parallel's TestProtocolChecksumCoversSource pins what it
	// hashes.
	if WireProtocolChecksum == 0 {
		t.Fatal("WireProtocolChecksum is zero: no protocol source was hashed")
	}
}

func TestRecvHelloChecksumMismatch(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		h := hello{Checksum: WireProtocolChecksum ^ 1, Rank: 2}
		_ = writeConnFrame(b, appendHello(nil, h), time.Second)
	}()
	_, err := recvHello(a, time.Second)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("mismatched protocol checksum accepted: %v", err)
	}
}

// TestRecvHelloSilentPeerBounded is the regression test for the accept
// watchdog: the handshake read used to carry no deadline, so a dialer
// that connected and then went silent parked the accept goroutine (and
// with it the whole mesh setup) forever.
func TestRecvHelloSilentPeerBounded(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close() // b never writes
	start := time.Now()
	_, err := recvHello(a, 50*time.Millisecond)
	if err == nil {
		t.Fatal("handshake with a silent peer succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("silent-peer handshake failed with %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("handshake took %v; the deadline did not bound it", elapsed)
	}
}

// FuzzFrame drives the socket framing with arbitrary bytes: any stream
// readFrame+decodeFrameBody accept must re-encode byte-identically (the
// encoding is canonical) and round-trip by value.
func FuzzFrame(f *testing.F) {
	for _, v := range wireSeeds() {
		seed, err := appendFrame(nil, 3, 7, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:5])
	}
	body := AppendInt(AppendInt(nil, 3), 7)
	body = append(body, wireAnyBody(u32RunWireID, AppendUint32(nil, 1<<30))...)
	f.Add(append(AppendUint32(nil, uint32(len(body))), body...))
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		src, tag, v, err := decodeFrameBody(body)
		if err != nil {
			return
		}
		re, err := appendFrame(nil, src, tag, v)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if consumed := data[:frameHeaderLen+len(body)]; !bytes.Equal(consumed, re) {
			t.Fatalf("decode/encode not canonical:\nconsumed %x\nre-enc   %x", consumed, re)
		}
		body2, err := readFrame(bytes.NewReader(re), nil)
		if err != nil {
			t.Fatalf("re-encoded frame unreadable: %v", err)
		}
		src2, tag2, v2, err := decodeFrameBody(body2)
		if err != nil || src2 != src || tag2 != tag || !reflect.DeepEqual(v, v2) {
			t.Fatalf("re-encoded frame did not round-trip: %v / src %d tag %d %#v vs src %d tag %d %#v",
				err, src, tag, v, src2, tag2, v2)
		}
	})
}

// FuzzStreamedFrame drives a link's streaming reader with arbitrary bytes
// through arbitrary read splits: it must decode exactly what the
// whole-frame reference decodes, or fail as the reference does (a clean
// io.EOF, or an ErrWire), never panic; and what it accepts must stream
// back to the bytes it consumed.
func FuzzStreamedFrame(f *testing.F) {
	for i, v := range append(wireSeeds(), flagRun{{1, true}, {2, false}}, flagRun{}) {
		seed := appendFrameT(f, 3, 7, v)
		f.Add(seed, uint64(i+1), uint16(3))
		f.Add(seed[:len(seed)-1], uint64(i+1), uint16(1))
	}
	f.Add(append(AppendUint32(nil, envelopeLen+5), wireAnyBody(u32RunWireID+2, AppendUint32(nil, 1<<30))...), uint64(1), uint16(7))
	f.Add(appendFrameT(f, 0, 0, flagRun{{7, true}})[:frameHeaderLen+envelopeLen+4+4], uint64(2), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, state uint64, most uint16) {
		_, _, want, wantErr := readWhole(data)
		split := &splitReader{r: bytes.NewReader(data), state: state | 1, max: int(most) + 1}
		src, tag, got, err := newFrameReader(split).next()
		switch {
		case wantErr == io.EOF || err == io.EOF:
			if err != wantErr {
				t.Fatalf("stream err %v, reference err %v", err, wantErr)
			}
		case wantErr != nil:
			if !errors.Is(err, ErrWire) {
				t.Fatalf("reference refused (%v) but the stream gave %v, %#v", wantErr, err, got)
			}
		case err != nil || !reflect.DeepEqual(got, want):
			t.Fatalf("stream err %v, value %#v; reference value %#v", err, got, want)
		default:
			var re bytes.Buffer
			if _, _, err := writeFrame(&re, nil, src, tag, got); err != nil {
				t.Fatalf("decoded frame failed to stream: %v", err)
			}
			if !bytes.Equal(re.Bytes(), data[:re.Len()]) {
				t.Fatalf("streamed re-encoding differs from the bytes read:\n got %x\nread %x", re.Bytes(), data[:re.Len()])
			}
		}
	})
}

// readWhole reads and decodes one frame the reference way.
func readWhole(data []byte) (src, tag int, v any, err error) {
	body, err := readFrame(bytes.NewReader(data), nil)
	if err != nil {
		return 0, 0, nil, err
	}
	return decodeFrameBody(body)
}

// splitReader hands out r's bytes in reads of 1..max bytes, sized by an
// xorshift sequence.
type splitReader struct {
	r     io.Reader
	state uint64
	max   int
}

func (s *splitReader) Read(p []byte) (int, error) {
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	return s.r.Read(p[:min(len(p), 1+int(s.state%uint64(s.max)))])
}

// FuzzHello drives the handshake with an arbitrary setup body: decodeHello
// and decodeTable must accept only what re-encodes to the same bytes, and
// admitHello must install the connection exactly when the hello decodes,
// carries this build's checksum and names a rank the listener expects in a
// free slot — never panic, and on refusal leave the table untouched.
func FuzzHello(f *testing.F) {
	for _, h := range []hello{
		{Checksum: WireProtocolChecksum, Rank: 2},
		{Checksum: WireProtocolChecksum, Rank: 1, Addr: "127.0.0.1:9"},
		{Checksum: WireProtocolChecksum, Rank: 7},
		{Checksum: WireProtocolChecksum ^ 1, Rank: 3},
	} {
		f.Add(appendHello(nil, h))
	}
	f.Add(appendTable(nil, addrTable{Checksum: WireProtocolChecksum, Addrs: []string{"", "a:1"}}))
	f.Fuzz(func(t *testing.T, body []byte) {
		h, err := decodeHello(body)
		if err == nil && !bytes.Equal(appendHello(nil, h), body) {
			t.Fatalf("hello %+v decoded from bytes it does not re-encode to", h)
		}
		if tbl, err := decodeTable(body); err == nil && !bytes.Equal(appendTable(nil, tbl), body) {
			t.Fatalf("table %+v decoded from bytes it does not re-encode to", tbl)
		}
		a, b := net.Pipe()
		defer a.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = writeConnFrame(b, body, time.Second) // a refused hello is closed under the writer
			b.Close()
		}()
		conns := make([]net.Conn, 4)
		conns[3] = b // a rank already admitted
		got, aerr := admitHello(a, time.Second, conns, 1, 4)
		<-done
		want := err == nil && h.Checksum == WireProtocolChecksum && h.Rank >= 1 && h.Rank < 3
		if (aerr == nil) != want {
			t.Fatalf("admitHello(%+v) = %v, want admitted %v", h, aerr, want)
		}
		for rank, c := range conns {
			if wantConn := map[bool]net.Conn{true: a, false: nil}[want && rank == h.Rank]; rank != 3 && c != wantConn {
				t.Fatalf("hello %+v (admitted %v): slot %d holds %v", h, want, rank, c)
			}
		}
		if want && got != h {
			t.Fatalf("admitted hello %+v, decoded %+v", got, h)
		}
	})
}

package mp

import (
	"bytes"
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

// u32RunWireID is u32Run's test-only wire id, far above the manifest's.
const u32RunWireID = 1 << 20

func init() {
	Register[u32Run](u32RunWireID)
	Register[cheapRun](u32RunWireID + 1)
}

// TestFrameReserveIsAHint: appendFrame reserves the payload's price before
// encoding. A payload that prices itself exactly costs one allocation however
// many appends its codec makes (three under the race detector, as for a
// one-int frame; growing by doubling, this one would take more than a
// dozen); one that under-prices encodes to the same bytes as into a buffer
// with room to spare.
func TestFrameReserveIsAHint(t *testing.T) {
	run := make(u32Run, 5000)
	for i := range run {
		run[i] = uint32(i)
	}
	var boxed any = run // boxing allocates: keep it out of the count
	if n := testing.AllocsPerRun(10, func() {
		if _, err := appendFrame(nil, 0, 1, boxed); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Fatalf("framing %d elements took %v allocations, want one", len(run), n)
	}
	cheap := cheapRun{run[:300]}
	if priced := elemSize(cheap); priced >= 4*300 {
		t.Fatalf("cheap payload priced at %d: not an under-priced input", priced)
	}
	got, err := appendFrame(nil, 2, 9, cheap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := appendFrame(make([]byte, 0, 1<<16), 2, 9, cheap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("an under-priced payload encodes differently into a tight buffer")
	}
	if _, _, v, err := decodeFrameBody(got[frameHeaderLen:]); err != nil || !reflect.DeepEqual(v, cheap) {
		t.Fatalf("under-priced frame decodes to %v, %v", v, err)
	}
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
	// The generated init must have stamped the build's protocol
	// fingerprint; a zero checksum would let mismatched builds mesh.
	if WireProtocolChecksum == 0 {
		t.Fatal("WireProtocolChecksum is zero: mpwire_gen.go did not assign it")
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

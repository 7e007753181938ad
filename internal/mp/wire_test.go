package mp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"parroute/internal/mpproto"
)

func TestWirePrimitivesRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendUint32(buf, 0xDEADBEEF)
	buf = AppendUint64(buf, 1<<63|42)
	buf = AppendInt(buf, -7)
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)
	buf = AppendString(buf, "héllo")

	u32, rest, err := WireUint32(buf)
	if err != nil || u32 != 0xDEADBEEF {
		t.Fatalf("u32 = %x, err %v", u32, err)
	}
	u64, rest, err := WireUint64(rest)
	if err != nil || u64 != 1<<63|42 {
		t.Fatalf("u64 = %x, err %v", u64, err)
	}
	i, rest, err := WireInt(rest)
	if err != nil || i != -7 {
		t.Fatalf("int = %d, err %v", i, err)
	}
	b1, rest, err := WireBool(rest)
	if err != nil || !b1 {
		t.Fatalf("bool = %v, err %v", b1, err)
	}
	b2, rest, err := WireBool(rest)
	if err != nil || b2 {
		t.Fatalf("bool = %v, err %v", b2, err)
	}
	s, rest, err := WireString(rest)
	if err != nil || s != "héllo" {
		t.Fatalf("string = %q, err %v", s, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d byte(s) left", len(rest))
	}
}

func TestWireDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"truncated u32", func() error { _, _, err := WireUint32([]byte{1, 2}); return err }()},
		{"truncated u64", func() error { _, _, err := WireUint64([]byte{1}); return err }()},
		{"truncated byte", func() error { _, _, err := WireByte(nil); return err }()},
		{"non-canonical bool", func() error { _, _, err := WireBool([]byte{2}); return err }()},
		{"string overrun", func() error { _, _, err := WireString([]byte{5, 0, 0, 0, 'a'}); return err }()},
		{"count overrun", func() error { _, _, err := WireCount([]byte{200, 0, 0, 0, 1}, 1); return err }()},
		{"wire id 0", wireAnyErr(0, nil)},
		{"unknown wire id", wireAnyErr(1<<31, nil)},
		{"any body overrun", func() error { _, _, err := WireAny(AppendUint32(AppendUint32(nil, wireIDInt), 9)); return err }()},
		{"bool with a trailing byte", wireAnyErr(wireIDBool, []byte{1, 0})},
		{"short int", wireAnyErr(wireIDInt, []byte{1, 2, 3})},
		{"[]int32 count overrun", wireAnyErr(wireIDInt32s, AppendUint32(nil, 1<<30))},
		{"[]int32 with trailing bytes", wireAnyErr(wireIDInt32s, append(AppendUint32(nil, 1), 1, 2, 3, 4, 5))},
		{"retired wire id 1", wireAnyErr(1, AppendUint32(nil, 0))},
		{"chaosMsg in a chaosMsg", func() error { _, _, err := WireAny(rawChaosNest(2)); return err }()},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", tc.name, tc.err)
		}
	}
}

// wireAnyErr decodes an interface value with the given id and body.
func wireAnyErr(id uint32, body []byte) error {
	_, _, err := WireAny(append(AppendUint32(AppendUint32(nil, id), uint32(len(body))), body...))
	return err
}

func TestWireCountBoundsAllocation(t *testing.T) {
	// A count prefix larger than the remaining input must be rejected up
	// front: every element consumes at least one byte, so the count could
	// never be satisfied and would only force a huge allocation.
	data := AppendUint32(nil, 1<<30)
	if _, _, err := WireCount(data, 1); !errors.Is(err, ErrWire) {
		t.Fatalf("oversized count accepted: %v", err)
	}
}

// uncodedPayload has no wire codec: encoding it is an attributed error.
type uncodedPayload struct{ A, B int }

// TestSendUnregisteredPayloadIsAttributed: a type with no codec fails to
// encode with an ErrWire naming it, on the loopback and the multi-process
// TCP engines alike, and because no byte reached the socket the
// connection carries the next Send.
func TestSendUnregisteredPayloadIsAttributed(t *testing.T) {
	if _, err := AppendAny(nil, uncodedPayload{A: 3, B: 9}); !errors.Is(err, ErrWire) || !strings.Contains(err.Error(), "mp.uncodedPayload") {
		t.Fatalf("AppendAny(uncodedPayload) = %v, want ErrWire naming the type", err)
	}
	if _, _, err := WireAny(AppendUint32(AppendUint32(nil, 0), 0)); !errors.Is(err, ErrWire) {
		t.Fatalf("wire id 0 accepted: %v", err)
	}
	worker := func(c Comm) error {
		if c.Rank() == 0 {
			err := c.Send(1, 1, uncodedPayload{A: 1})
			if !errors.Is(err, ErrWire) || !strings.Contains(err.Error(), "mp.uncodedPayload") {
				return fmt.Errorf("Send(uncodedPayload) = %v, want ErrWire naming the type", err)
			}
			return c.Send(1, 1, 42)
		}
		got, err := c.Recv(0, 1)
		if err != nil || got != 42 {
			return fmt.Errorf("after the failed Send: got %v, err %v", got, err)
		}
		return nil
	}
	if _, err := (Config{Procs: 2, Mode: TCP}).Run(worker); err != nil {
		t.Errorf("loopback TCP: %v", err)
	}
	for r, err := range runMesh(t, 2, Config{}, worker) {
		if err != nil {
			t.Errorf("mesh rank %d: %v", r, err)
		}
	}
}

func TestAppendAnyUnencodable(t *testing.T) {
	if _, err := AppendAny(nil, func() {}); !errors.Is(err, ErrWire) {
		t.Fatalf("encoding a func = %v, want ErrWire", err)
	}
}

// rawChaosNest hand-encodes n chaosMsgs, each in the V of the one before,
// around the int 7, outermost Seq n: what AppendAny would write if it did
// not refuse a chaosMsg in an interface field. It writes front to back, so
// a deep nest costs its bytes and no more.
func rawChaosNest(n int) []byte {
	leaf, _ := AppendAny(nil, 7)
	buf := make([]byte, 0, 16*n+len(leaf))
	for i := n; i > 0; i-- {
		buf = AppendUint32(buf, firstPayloadWireID)
		buf = AppendUint32(buf, uint32(16*i-8+len(leaf))) // Seq, then i-1 levels and the leaf
		buf = AppendUint64(buf, uint64(i))
	}
	return append(buf, leaf...)
}

// TestNestedChaosMsgRefused: an interface field holds no payload with an
// interface field of its own, so a chaosMsg nests one level deep. One level
// round-trips; 2^22 levels — 64 MB, a frame body under maxFrameLen — are an
// ErrWire at the second level instead of a recursion as deep as the input,
// which would overflow the goroutine stack and kill the rank; and AppendAny
// refuses the two-level value, so the sender gets the error, not the peer.
func TestNestedChaosMsgRefused(t *testing.T) {
	v, rest, err := WireAny(rawChaosNest(1))
	if err != nil || len(rest) != 0 || v != (chaosMsg{Seq: 1, V: 7}) {
		t.Fatalf("one level = %#v, %d byte(s) left, %v", v, len(rest), err)
	}
	deep := rawChaosNest(1 << 22)
	if len(deep) > maxFrameLen {
		t.Fatalf("nest of %d bytes does not fit a frame", len(deep))
	}
	if _, _, err := WireAny(deep); !errors.Is(err, ErrWire) || !strings.Contains(err.Error(), "interface field") {
		t.Fatalf("decoding 2^22 nested chaosMsgs = %v, want ErrWire at the second level", err)
	}
	if _, err := AppendAny(nil, chaosMsg{Seq: 1, V: chaosMsg{Seq: 2, V: 7}}); !errors.Is(err, ErrWire) {
		t.Fatalf("encoding a chaosMsg in a chaosMsg = %v, want ErrWire", err)
	}
}

func TestBuiltinCodecs(t *testing.T) {
	// The three builtin shapes encode under the ids mp_protocol.json
	// reserves for them (round trip and canonical re-encode ride the fuzz
	// seeds below; malformed bodies are in TestWireDecodeErrors).
	man, err := mpproto.Load("../../" + mpproto.ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]any{"[]int32": []int32{1}, "int": 1, "bool": true} {
		enc, err := AppendAny(nil, v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		i := slices.IndexFunc(man.Types, func(e mpproto.TypeEntry) bool { return e.Package == "" && e.Name == name })
		if id, _, _ := WireUint32(enc); i < 0 || id != man.Types[i].WireID || id >= firstPayloadWireID {
			t.Errorf("%s encodes under id %d, not the manifest's", name, id)
		}
	}
	// nil and empty encode identically, so the decoder's choice of one
	// cannot break decode→re-encode identity.
	nilEnc, _ := AppendAny(nil, []int32(nil))
	emptyEnc, _ := AppendAny(nil, []int32{})
	if !bytes.Equal(nilEnc, emptyEnc) {
		t.Errorf("[]int32(nil) encodes as %x, []int32{} as %x", nilEnc, emptyEnc)
	}
}

func TestChaosMsgCodecRoundTrip(t *testing.T) {
	// chaosMsg is the one generated codec in this package: it must encode
	// under its manifest id, round-trip, and re-encode byte-identically.
	msg := chaosMsg{Seq: 99, V: []int32{2, 3}}
	enc, err := AppendAny(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := WireUint32(enc)
	if err != nil || id != firstPayloadWireID {
		t.Fatalf("wire id = %d, err %v; want chaosMsg (%d)", id, err, firstPayloadWireID)
	}
	v, rest, err := WireAny(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v, %d byte(s) left", err, len(rest))
	}
	got, ok := v.(chaosMsg)
	if !ok || got.Seq != 99 || !reflect.DeepEqual(got.V, msg.V) {
		t.Fatalf("round trip = %#v", v)
	}
	re, err := AppendAny(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatalf("re-encode differs:\n got %x\nwant %x", re, enc)
	}
}

func TestChaosMsgWireSizeFlat(t *testing.T) {
	// The chaos wrapper must price flat — 8 bytes of sequence number plus
	// the wrapped payload's own flat body behind one element header — so a
	// chaos run costs what the application message costs.
	inner := sizedBatch(7)
	msg := chaosMsg{Seq: 4, V: inner}
	if got, want := msg.WireSize(), 8+elemHeader+inner.WireSize(); got != want {
		t.Fatalf("chaosMsg.WireSize() = %d, want %d", got, want)
	}
	// End to end through payloadSize: one frame for the chaos message, not
	// a second one for the wrapped payload.
	if got, want := payloadSize(msg), frameOverhead+8+elemHeader+inner.WireSize(); got != want {
		t.Fatalf("payloadSize(chaosMsg) = %d, want %d", got, want)
	}
}

// wireSeeds are the fuzz seeds FuzzAnyCodec and FuzzFrame share: each
// builtin and the chaos wrapper around builtins. A chaosMsg in a chaosMsg
// (rawChaosNest(2)) is seeded raw because AppendAny refuses to produce it.
func wireSeeds() []any {
	return []any{
		chaosMsg{Seq: 12, V: []int32{6}},
		true,
		-3,
		[]int32{1, 2, 3},
		chaosMsg{Seq: 1, V: false},
		[]int32(nil),
	}
}

// FuzzAnyCodec drives WireAny with arbitrary bytes: every input it
// accepts must re-encode byte-identically (the encoding is canonical) and
// round-trip by value.
func FuzzAnyCodec(f *testing.F) {
	for _, v := range wireSeeds() {
		seed, err := AppendAny(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add(rawChaosNest(2))
	f.Add(AppendUint32(AppendUint32(nil, firstPayloadWireID), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := WireAny(data)
		if err != nil {
			return
		}
		re, err := AppendAny(nil, v)
		if err != nil {
			t.Fatalf("decoded value failed to re-encode: %v", err)
		}
		if consumed := data[:len(data)-len(rest)]; !bytes.Equal(consumed, re) {
			t.Fatalf("decode/encode not canonical:\nconsumed %x\nre-enc   %x", consumed, re)
		}
		v2, _, err := WireAny(re)
		if err != nil || !reflect.DeepEqual(v, v2) {
			t.Fatalf("re-encoded value did not round-trip: %v / %#v vs %#v", err, v, v2)
		}
	})
}

package mp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
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
		{"payload count overrun", wireAnyErr(u32RunWireID, AppendUint32(nil, 1<<30))},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", tc.name, tc.err)
		}
	}
}

// wireAnyBody frames body as an interface value with the given id.
func wireAnyBody(id uint32, body []byte) []byte {
	return append(AppendUint32(AppendUint32(nil, id), uint32(len(body))), body...)
}

// wireAnyErr decodes an interface value with the given id and body.
func wireAnyErr(id uint32, body []byte) error {
	_, _, err := WireAny(wireAnyBody(id, body))
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

func TestBuiltinCodecs(t *testing.T) {
	// The three builtin shapes encode under their reserved ids (round trip
	// and canonical re-encode ride the fuzz seeds below; malformed bodies
	// are in TestWireDecodeErrors).
	for name, tc := range map[string]struct {
		v  any
		id uint32
	}{"[]int32": {[]int32{1}, 2}, "bool": {true, 3}, "int": {1, 4}} {
		enc, err := AppendAny(nil, tc.v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if id, _, _ := WireUint32(enc); id != tc.id {
			t.Errorf("%s encodes under id %d, want %d", name, id, tc.id)
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

// wireSeeds are the fuzz seeds FuzzAnyCodec and FuzzFrame share: each
// builtin and a registered payload, u32Run, whose codec has the shape of
// a payload batch (a u32 count, then fixed-width elements).
func wireSeeds() []any {
	return []any{
		u32Run{12, 6},
		true,
		-3,
		[]int32{1, 2, 3},
		u32Run{},
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
	f.Add(wireAnyBody(u32RunWireID, AppendUint32(nil, 1<<30)))
	f.Add(wireAnyBody(u32RunWireID, nil))
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

package parallel

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/mp"
)

// body is v's parroute-mpwire/1 body: what mp.AppendAny writes behind the
// u32 wire id and u32 length, derived from the record codec for a batch.
func body(v any) ([]byte, error) {
	enc, err := mp.AppendAny(nil, v)
	if err != nil {
		return nil, err
	}
	return enc[8:], nil
}

// decodeAs decodes a body of T off data through mp.DecodeBody, the
// decoder mp derives for a batch, returning the remainder.
func decodeAs[T any](data []byte) (any, []byte, error) {
	v, rest, err := mp.DecodeBody[T](data)
	return v, rest, err
}

// samplePayloads returns representative values of every payload codec,
// each paired with its decoder. The values exercise every field
// kind the codecs emit: fixed ints, the Side byte, bools, strings, and
// doubly nested slices (Summary.Phases[].Counters). Every field of every
// payload type is non-zero in some sample (TestSamplesSetEveryField), so a
// field the codec skips fails TestCodecRoundTrip.
func samplePayloads() []struct {
	name   string
	value  any
	decode func(data []byte) (any, []byte, error)
} {
	return []struct {
		name   string
		value  any
		decode func(data []byte) (any, []byte, error)
	}{
		{"FakePinBatch", FakePinBatch{
			{Net: 7, X: 120, Row: 3, Side: circuit.Bottom},
			{Net: 9, X: -4, Row: 0, Side: circuit.Side(1)},
		}, decodeAs[FakePinBatch]},
		{"CrossingBatch", CrossingBatch{
			{Net: 1, X: 55, Row: 2},
			{Net: 2, X: 0, Row: 11},
			{Net: 3, X: -1, Row: 5},
		}, decodeAs[CrossingBatch]},
		{"NodeBatch", NodeBatch{
			{Net: 42, X: 17, Row: 8, Side: circuit.Bottom},
		}, decodeAs[NodeBatch]},
		{"NodeBatchTop", NodeBatch{
			{Net: 43, X: -17, Row: 9, Side: circuit.Top},
		}, decodeAs[NodeBatch]},
		{"WireBatch", WireBatch{Wires: []metrics.Wire{
			{Net: 5, Channel: 2, Switchable: true, AX: 10, ARow: 1, BX: 90, BRow: 3},
			{Net: 6, Channel: 0, Switchable: false, AX: -3, ARow: 0, BX: 4, BRow: 0},
		}}, decodeAs[WireBatch]},
		{"Summary", Summary{
			Rank: 3, InsertedFts: 14, ForcedEdges: 2, SwitchableWs: 9,
			SwitchFlips: 1, CoarseFlips: 4, CoreWidth: 512,
			Phases: []metrics.Phase{
				{Name: "fake-pins", Elapsed: 120 * time.Microsecond,
					Counters: []metrics.Counter{{Name: "specs", Value: 12}}},
				{Name: "connect", Elapsed: time.Millisecond, Counters: nil},
			},
		}, decodeAs[Summary]},
	}
}

// TestWireSizeDifferential pins each batch's record count and width, which
// mp prices a batch by (count × width), and Summary's own price, across a
// range of lengths. A layout change that alters pricing must show up here
// as an explicit diff.
func TestWireSizeDifferential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		for _, tc := range []struct {
			name  string
			b     interface{ WireRecords() (int, int) }
			width int
		}{
			{"FakePinBatch", make(FakePinBatch, n), 13},
			{"CrossingBatch", make(CrossingBatch, n), 12},
			{"NodeBatch", make(NodeBatch, n), 13},
			{"WireBatch", WireBatch{Wires: make([]metrics.Wire, n)}, 25},
		} {
			if gotN, gotW := tc.b.WireRecords(); gotN != n || gotW != tc.width {
				t.Errorf("%s(len %d).WireRecords() = %d, %d, want %d, %d", tc.name, n, gotN, gotW, n, tc.width)
			}
		}
		if got, want := (Summary{Phases: make([]metrics.Phase, n)}).WireSize(), 7*8+n*24; got != want {
			t.Errorf("Summary(%d phases).WireSize() = %d, want %d", n, got, want)
		}
	}
}

// TestMessagesStaySmall pins the in-memory size of the step-3 and step-4
// records a rank batches per peer: 16 bytes for a node and a fake-pin spec
// (three int32 fields and the side), 12 for a crossing (32, 32 and 24 with
// int fields).
func TestMessagesStaySmall(t *testing.T) {
	for _, tc := range []struct {
		name      string
		size, max uintptr
	}{
		{"NodeMsg", unsafe.Sizeof(NodeMsg{}), 16},
		{"FakePinSpec", unsafe.Sizeof(FakePinSpec{}), 16},
		{"CrossingMsg", unsafe.Sizeof(CrossingMsg{}), 12},
	} {
		if tc.size > tc.max {
			t.Errorf("%s is %d bytes, at most %d expected", tc.name, tc.size, tc.max)
		}
	}
}

// TestCodecRoundTrip checks encode→decode value equality and
// decode→re-encode byte identity (the codec is canonical) for every
// payload codec.
func TestCodecRoundTrip(t *testing.T) {
	for _, tc := range samplePayloads() {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := body(tc.value)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, rest, err := tc.decode(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(rest) != 0 {
				t.Fatalf("decode left %d byte(s)", len(rest))
			}
			if !reflect.DeepEqual(got, normalize(tc.value)) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, tc.value)
			}
			re, err := body(got)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(enc, re) {
				t.Fatalf("re-encode differs:\n got %x\nwant %x", re, enc)
			}
			// The trailing bytes of a longer buffer must come back as rest.
			withTail := append(append([]byte{}, enc...), 0xAA, 0xBB)
			_, rest, err = tc.decode(withTail)
			if err != nil || !bytes.Equal(rest, []byte{0xAA, 0xBB}) {
				t.Fatalf("tail not preserved: rest=%x err=%v", rest, err)
			}
		})
	}
}

// TestPayloadsCrossAny sends every sample through mp.AppendAny and
// mp.WireAny, the path a message takes over TCP, so a payload type whose
// mp.Register line is missing fails beside its codec.
func TestPayloadsCrossAny(t *testing.T) {
	for _, tc := range samplePayloads() {
		enc, err := mp.AppendAny(nil, tc.value)
		if err != nil {
			t.Errorf("%s: AppendAny: %v", tc.name, err)
			continue
		}
		got, rest, err := mp.WireAny(enc)
		if err != nil || len(rest) != 0 {
			t.Errorf("%s: WireAny: %v, %d byte(s) left", tc.name, err, len(rest))
			continue
		}
		if !reflect.DeepEqual(got, normalize(tc.value)) {
			t.Errorf("%s: came back as %#v", tc.name, got)
		}
	}
}

// TestSamplesSetEveryField holds samplePayloads to what TestCodecRoundTrip
// needs from them: every field of every payload type, records' fields
// included, is non-zero in at least one sample of that type. A field added
// to a record must be set in a sample, and the round trip then fails if
// the codec neither encodes nor decodes it.
func TestSamplesSetEveryField(t *testing.T) {
	set := map[reflect.Type]map[string]bool{} // payload type → field path → non-zero somewhere
	var walk func(typ reflect.Type, path string, v reflect.Value)
	walk = func(typ reflect.Type, path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			walk(typ, path+"[]", reflect.Zero(v.Type().Elem())) // an empty slice still lists its fields
			for i := 0; i < v.Len(); i++ {
				walk(typ, path+"[]", v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(typ, path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		default:
			set[typ][path] = set[typ][path] || !v.IsZero()
		}
	}
	for _, tc := range samplePayloads() {
		typ := reflect.TypeOf(tc.value)
		if set[typ] == nil {
			set[typ] = map[string]bool{}
		}
		walk(typ, typ.Name(), reflect.ValueOf(tc.value))
	}
	for typ, fields := range set {
		for path, nonZero := range fields {
			if !nonZero {
				t.Errorf("%v: %s is zero in every sample: set it in samplePayloads", typ, path)
			}
		}
	}
}

// TestProtocolChecksumCoversSource: the build's protocol fingerprint is
// FNV-1a/64 over internal/mp's wire.go, then this package's messages.go and
// codec.go, so a tag renumbering or a payload or codec edit changes what the
// TCP hello compares.
func TestProtocolChecksumCoversSource(t *testing.T) {
	h := fnv.New64a()
	for _, name := range []string{"../mp/wire.go", "messages.go", "codec.go"} {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(src)
	}
	if mp.WireProtocolChecksum != h.Sum64() {
		t.Fatalf("mp.WireProtocolChecksum = %#016x, FNV-1a/64 of the protocol source is %#016x", mp.WireProtocolChecksum, h.Sum64())
	}
}

// normalize maps nil slices to the empty slices decode produces, so
// DeepEqual compares shape rather than nil-ness.
func normalize(v any) any {
	switch p := v.(type) {
	case Summary:
		if p.Phases == nil {
			p.Phases = []metrics.Phase{}
		}
		for i := range p.Phases {
			if p.Phases[i].Counters == nil {
				p.Phases[i].Counters = []metrics.Counter{}
			}
		}
		return p
	}
	return v
}

// TestCodecTruncation feeds every strict prefix of each encoding to the
// decoder: all must fail with mp.ErrWire, none may panic.
func TestCodecTruncation(t *testing.T) {
	for _, tc := range samplePayloads() {
		enc, err := body(tc.value)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(enc); n++ {
			if _, _, err := tc.decode(enc[:n]); err == nil {
				t.Fatalf("%s: decoding %d/%d bytes succeeded", tc.name, n, len(enc))
			}
		}
	}
}

// TestWireGolden pins each sample encoding to a checked-in golden file
// (hex, testdata/wire). UPDATE_GOLDEN=1 regenerates. The files double as
// the fuzz seed corpus (see FuzzCodec), so a codec change shows up both
// as a golden diff and as fresh fuzz seeds.
func TestWireGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for i, tc := range samplePayloads() {
		enc, err := body(tc.value)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "wire", fmt.Sprintf("%s.hex", tc.name))
		got := []byte(hex.EncodeToString(enc) + "\n")
		if update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (run with UPDATE_GOLDEN=1): %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("codec %d (%s) drifted from golden %s:\n got %s want %s",
				i, tc.name, path, got, want)
		}
	}
}

// FuzzCodec is the canonical-encoding fuzz gate: any byte string the
// decoders accept must re-encode to exactly the bytes consumed
// (decode→encode identity), and the sample encodings must round-trip
// (encode→decode→re-encode identity, seeded from the golden corpus).
// Further seeds put every int32 field of a WireBatch and a NodeBatch at the
// type's two ends.
func FuzzCodec(f *testing.F) {
	sel := map[string]uint8{}
	for i, tc := range samplePayloads() {
		enc, err := body(tc.value)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), enc)
		sel[tc.name] = uint8(i)
	}
	for _, v := range []int32{math.MinInt32, math.MaxInt32} {
		wires, err := body(WireBatch{Wires: []metrics.Wire{{Net: v, Channel: v,
			Switchable: true, AX: v, ARow: v, BX: v, BRow: v}}})
		if err != nil {
			f.Fatal(err)
		}
		nodes, err := body(NodeBatch{{Net: v, X: v, Row: v, Side: circuit.Both}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sel["WireBatch"], wires)
		f.Add(sel["NodeBatch"], nodes)
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		decoders := samplePayloads()
		tc := decoders[int(sel)%len(decoders)]
		v, rest, err := tc.decode(data)
		if err != nil {
			return // malformed input is fine; panics and false accepts are not
		}
		consumed := data[:len(data)-len(rest)]
		re, err := body(v)
		if err != nil {
			t.Fatalf("%s: decoded value failed to re-encode: %v", tc.name, err)
		}
		if !bytes.Equal(consumed, re) {
			t.Fatalf("%s: decode/encode not canonical:\nconsumed %x\nre-enc   %x",
				tc.name, consumed, re)
		}
	})
}

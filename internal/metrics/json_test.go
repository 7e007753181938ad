package metrics

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

// referenceJSON is the reflective encoder AppendJSON replaced, kept as the
// reference the one-pass writer must match byte for byte: the result
// copied into jsonResult and handed to encoding/json, trailing newline
// included.
func referenceJSON(t testing.TB, r *Result) []byte {
	jr := jsonResult{
		Circuit: r.Circuit, Algo: r.Algo, Procs: r.Procs,
		ChannelDensity: r.ChannelDensity, TotalTracks: r.TotalTracks,
		Area: r.Area, Wirelength: r.Wirelength,
		Feedthroughs: r.Feedthroughs, ForcedEdges: r.ForcedEdges,
		CoreWidth: r.CoreWidth, SwitchableWires: r.SwitchableWires,
		SwitchFlips: r.SwitchFlips, CoarseFlips: r.CoarseFlips,
		ElapsedNS: r.Elapsed.Nanoseconds(), Phases: r.Phases, Degraded: r.Degraded,
	}
	jr.Wires = make([]jsonWire, len(r.Wires))
	for i := range r.Wires {
		w := &r.Wires[i]
		jr.Wires[i] = jsonWire{
			Net: w.Net, Channel: w.Channel, Lo: w.Span().Lo, Hi: w.Span().Hi,
			Switchable: w.Switchable, Row: w.Row(),
			AX: w.AX, ARow: w.ARow, BX: w.BX, BRow: w.BRow,
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&jr); err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return buf.Bytes()
}

// fuzzResult builds a Result from fuzz input: ints supplies every number
// (8 bytes each, little-endian, so negatives appear), flags picks nil
// versus empty slices and which optional parts are present, and the three
// strings become the circuit, algorithm and phase/counter names. A wire is
// built from its anchors, as the router builds it: a switchable one has
// both in one row and sits in that row's channel or the one above.
func fuzzResult(ints []byte, flags uint8, circuit, algo, name string) *Result {
	next := func() int {
		var b [8]byte
		n := copy(b[:], ints)
		ints = ints[n:]
		return int(int64(binary.LittleEndian.Uint64(b[:])))
	}
	next32 := func() int32 { return int32(next()) }
	nwires := len(ints) / 56
	r := &Result{Circuit: circuit, Algo: algo, Procs: next()}
	if flags&1 != 0 || nwires > 0 {
		r.Wires = make([]Wire, 0, nwires)
	}
	for i := 0; i < nwires; i++ {
		w := Wire{Net: next32(), Channel: next32(), AX: next32(), ARow: next32(), BX: next32(), BRow: next32()}
		w.Switchable = next()&1 == 1
		if w.ARow%3 == 0 { // make the omitted row common
			w.ARow = 0
		}
		if w.AX%5 == 0 { // and the zero-length connection
			w.BX = w.AX
		}
		if w.Switchable {
			w.BRow = w.ARow
			if w.Channel&1 == 0 || w.ARow == math.MaxInt32 {
				w.Channel = w.ARow
			} else {
				w.Channel = w.ARow + 1
			}
		}
		r.Wires = append(r.Wires, w)
	}
	if flags&2 != 0 {
		r.ChannelDensity = []int{}
		for i := 0; i < int(flags>>6); i++ {
			r.ChannelDensity = append(r.ChannelDensity, next())
		}
	}
	r.TotalTracks, r.Area, r.Wirelength = next(), int64(next()), int64(next())
	r.Feedthroughs, r.ForcedEdges, r.CoreWidth = next(), next(), next()
	r.SwitchableWires, r.SwitchFlips, r.CoarseFlips = next(), next(), next()
	r.Elapsed = time.Duration(next())
	if flags&4 != 0 {
		r.Phases = []Phase{}
	}
	if flags&8 != 0 {
		p := Phase{Name: name, Elapsed: time.Duration(next())}
		if flags&16 != 0 {
			p.Counters = []Counter{{Name: name + "<&>", Value: int64(next())}, {Name: "", Value: -1}}
		}
		r.Phases = append(r.Phases, p, Phase{Name: "x", Counters: []Counter{}})
	}
	r.Degraded = flags&32 != 0
	return r
}

// roundTripped is what ReadResultJSON must return for r: strings as
// encoding/json reads back its own output (invalid UTF-8 becomes U+FFFD),
// wires never nil, empty phase and counter lists absent, Faults dropped.
func roundTripped(r *Result) *Result {
	str := func(s string) string {
		b, _ := json.Marshal(s)
		var out string
		_ = json.Unmarshal(b, &out)
		return out
	}
	want := *r
	want.Circuit, want.Algo, want.Faults = str(r.Circuit), str(r.Algo), nil
	want.Wires = append([]Wire{}, r.Wires...)
	want.Phases = nil
	for _, p := range r.Phases {
		p.Name = str(p.Name)
		var cs []Counter
		for _, c := range p.Counters {
			cs = append(cs, Counter{Name: str(c.Name), Value: c.Value})
		}
		p.Counters = cs
		want.Phases = append(want.Phases, p)
	}
	return &want
}

func checkAppendJSON(t *testing.T, r *Result) {
	t.Helper()
	got := r.AppendJSON([]byte("prefix"))
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("AppendJSON clobbered dst: %q", got)
	}
	got = got[len("prefix"):]
	want := referenceJSON(t, r)
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("AppendJSON differs from the reflective encoder:\n got %s\nwant %s", got, want)
	}
	back, err := ReadResultJSON(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("ReadResultJSON: %v\n%s", err, got)
	}
	if exp := roundTripped(r); !reflect.DeepEqual(back, exp) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, exp)
	}
}

// appendJSONSeeds cover the encoder's branches: nil and empty slices,
// Row == 0 and Switchable both ways, negative numbers, phases with and
// without counters, Degraded, and names encoding/json escapes.
var appendJSONSeeds = []struct {
	ints                 []byte
	flags                uint8
	circuit, algo, phase string
}{
	{nil, 0, "", "", ""},
	{nil, 1 | 2 | 4, "primary2", "serial", "steiner"},
	{bytes.Repeat([]byte{0xff, 1, 0, 0, 0, 0, 0, 0x80}, 40), 0xff, "a<b>&c\"d e", "net\\wise\n", "\xff\xfe bad  "},
	{bytes.Repeat([]byte{3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, 20), 2 | 8 | 64, "ok", "hybrid", "coarse\t\x01"},
}

func TestAppendJSONMatchesReference(t *testing.T) {
	for _, s := range appendJSONSeeds {
		checkAppendJSON(t, fuzzResult(s.ints, s.flags, s.circuit, s.algo, s.phase))
	}
	var buf bytes.Buffer
	r := fuzzResult(appendJSONSeeds[2].ints, 0xff, "c", "a", "p")
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if want := referenceJSON(t, r); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteJSON differs from the reflective encoder:\n got %s\nwant %s", buf.Bytes(), want)
	}
}

// wireDoc is a result document holding one wire: w's fields, with lo, hi
// and row as given instead of as derived.
func wireDoc(t *testing.T, w Wire, lo, hi, row int32) []byte {
	b, err := json.Marshal(jsonResult{Wires: []jsonWire{{
		Net: w.Net, Channel: w.Channel, Lo: lo, Hi: hi, Switchable: w.Switchable, Row: row,
		AX: w.AX, ARow: w.ARow, BX: w.BX, BRow: w.BRow,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// consistentWire restates, apart from Wire.Span and Wire.Row, what a wire
// document must say to be read: lo and hi the span between the anchors
// ([1,0] when they share an x), row the switchable wire's anchor row and
// absent otherwise, and a switchable wire's anchors in one row whose
// channel or the one above holds it.
func consistentWire(w Wire, lo, hi, row int32) bool {
	wantLo, wantHi := min(w.AX, w.BX), max(w.AX, w.BX)
	if w.AX == w.BX {
		wantLo, wantHi = 1, 0
	}
	if !w.Switchable {
		return lo == wantLo && hi == wantHi && row == 0
	}
	return lo == wantLo && hi == wantHi && row == w.ARow && w.BRow == w.ARow &&
		(int64(w.Channel) == int64(w.ARow) || int64(w.Channel) == int64(w.ARow)+1)
}

// TestReadResultJSONRefusesUnderivedWire: a wire document whose lo/hi or
// row is not what its anchors give, or a switchable one whose anchors lie
// in two rows or whose channel is off their row, is refused rather than
// read into a Wire that would say something else.
func TestReadResultJSONRefusesUnderivedWire(t *testing.T) {
	sw := Wire{Net: 1, Channel: 3, Switchable: true, AX: 9, ARow: 2, BX: 4, BRow: 2}
	fixed := Wire{Net: 2, Channel: 1, AX: 4, ARow: 0, BX: 8, BRow: 1}
	point := Wire{Net: 3, Channel: 1, AX: 6, ARow: 1, BX: 6, BRow: 1}
	for _, tc := range []struct {
		name         string
		w            Wire
		lo, hi, row  int32
		wantAccepted bool
	}{
		{"switchable", sw, 4, 9, 2, true},
		{"fixed", fixed, 4, 8, 0, true},
		{"zero-length", point, 1, 0, 0, true},
		{"lo-off", fixed, 3, 8, 0, false},
		{"hi-off", fixed, 4, 9, 0, false},
		{"zero-length-as-point", point, 6, 6, 0, false},
		{"fixed-with-row", fixed, 4, 8, 1, false},
		{"switchable-without-row", sw, 4, 9, 0, false},
		{"switchable-row-off", sw, 4, 9, 3, false},
		{"switchable-rows-differ", Wire{Channel: 2, Switchable: true, AX: 4, ARow: 2, BX: 9, BRow: 3}, 4, 9, 2, false},
		{"switchable-channel-below", Wire{Channel: 1, Switchable: true, AX: 4, ARow: 2, BX: 9, BRow: 2}, 4, 9, 2, false},
		{"switchable-channel-above", Wire{Channel: 4, Switchable: true, AX: 4, ARow: 2, BX: 9, BRow: 2}, 4, 9, 2, false},
	} {
		if consistentWire(tc.w, tc.lo, tc.hi, tc.row) != tc.wantAccepted {
			t.Fatalf("%s: the test's consistency rule disagrees with the table", tc.name)
		}
		r, err := ReadResultJSON(bytes.NewReader(wireDoc(t, tc.w, tc.lo, tc.hi, tc.row)))
		switch {
		case tc.wantAccepted && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.wantAccepted && r.Wires[0] != tc.w:
			t.Errorf("%s: read %+v, want %+v", tc.name, r.Wires[0], tc.w)
		case !tc.wantAccepted && err == nil:
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// FuzzAppendJSON: for any result, the one-pass writer's bytes equal the
// reflective encoder's, and ReadResultJSON reads them back. The result's
// first wire is then written with arbitrary lo, hi and row — pick's low
// three bits put the derived value back in each, and its next two move a
// switchable wire's second anchor a row up or its channel two up — and
// ReadResultJSON must accept that document exactly when it is consistent.
func FuzzAppendJSON(f *testing.F) {
	for i, s := range appendJSONSeeds {
		f.Add(s.ints, s.flags, s.circuit, s.algo, s.phase, int32(i), int32(-i), int32(i%2), uint8(i*7))
	}
	f.Fuzz(func(t *testing.T, ints []byte, flags uint8, circuit, algo, phase string, lo, hi, row int32, pick uint8) {
		r := fuzzResult(ints, flags, circuit, algo, phase)
		checkAppendJSON(t, r)
		if len(r.Wires) == 0 {
			return
		}
		w := r.Wires[0]
		if pick&1 != 0 {
			lo = w.Span().Lo
		}
		if pick&2 != 0 {
			hi = w.Span().Hi
		}
		if pick&4 != 0 {
			row = w.Row()
		}
		if pick&8 != 0 && w.Switchable {
			w.BRow++
		}
		if pick&16 != 0 && w.Switchable {
			w.Channel += 2
		}
		back, err := ReadResultJSON(bytes.NewReader(wireDoc(t, w, lo, hi, row)))
		if want := consistentWire(w, lo, hi, row); want != (err == nil) {
			t.Fatalf("wire %+v with lo %d hi %d row %d: consistent %v, read error %v", w, lo, hi, row, want, err)
		}
		if err == nil && back.Wires[0] != w {
			t.Fatalf("read %+v, want %+v", back.Wires[0], w)
		}
	})
}

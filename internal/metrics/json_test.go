package metrics

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"parroute/internal/geom"
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
			Net: w.Net, Channel: w.Channel, Lo: w.Span.Lo, Hi: w.Span.Hi,
			Switchable: w.Switchable, Row: w.Row,
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
// strings become the circuit, algorithm and phase/counter names.
func fuzzResult(ints []byte, flags uint8, circuit, algo, name string) *Result {
	next := func() int {
		var b [8]byte
		n := copy(b[:], ints)
		ints = ints[n:]
		return int(int64(binary.LittleEndian.Uint64(b[:])))
	}
	next32 := func() int32 { return int32(next()) }
	nwires := len(ints) / 80
	r := &Result{Circuit: circuit, Algo: algo, Procs: next()}
	if flags&1 != 0 || nwires > 0 {
		r.Wires = make([]Wire, 0, nwires)
	}
	for i := 0; i < nwires; i++ {
		w := Wire{Net: next32(), Channel: next32(), Span: geom.Interval{Lo: next32(), Hi: next32()}, Row: next32(),
			AX: next32(), ARow: next32(), BX: next32(), BRow: next32()}
		w.Switchable = next()&1 == 1
		if w.Row%3 == 0 { // make the omitted row common
			w.Row = 0
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

// FuzzAppendJSON: for any result, the one-pass writer's bytes equal the
// reflective encoder's, and ReadResultJSON reads them back.
func FuzzAppendJSON(f *testing.F) {
	for _, s := range appendJSONSeeds {
		f.Add(s.ints, s.flags, s.circuit, s.algo, s.phase)
	}
	f.Fuzz(func(t *testing.T, ints []byte, flags uint8, circuit, algo, phase string) {
		checkAppendJSON(t, fuzzResult(ints, flags, circuit, algo, phase))
	})
}

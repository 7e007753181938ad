package metrics

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"parroute/internal/geom"
	"parroute/internal/rng"
)

// wire is a non-switchable wire in channel ch between anchors at x = a and
// x = b: its span covers both, or nothing when a == b.
func wire(ch, a, b int) Wire {
	return Wire{Channel: int32(ch), AX: int32(a), BX: int32(b)}
}

func TestChannelDensitiesBasic(t *testing.T) {
	wires := []Wire{
		wire(0, 0, 10),
		wire(0, 5, 15),  // overlaps the first -> density 2
		wire(0, 20, 30), // disjoint
		wire(1, 0, 100),
	}
	d := ChannelDensities(3, wires, 1)
	if d[0] != 2 || d[1] != 1 || d[2] != 0 {
		t.Fatalf("densities = %v", d)
	}
	if TotalTracks(d) != 3 {
		t.Fatalf("total = %d", TotalTracks(d))
	}
}

func TestChannelDensitiesTouchingSpans(t *testing.T) {
	// Closed intervals: [0,10] and [10,20] share x=10 -> density 2 there.
	d := ChannelDensities(1, []Wire{wire(0, 0, 10), wire(0, 10, 20)}, 1)
	if d[0] != 2 {
		t.Fatalf("touching spans density = %d, want 2", d[0])
	}
	// [0,10] and [11,20] are disjoint.
	d = ChannelDensities(1, []Wire{wire(0, 0, 10), wire(0, 11, 20)}, 1)
	if d[0] != 1 {
		t.Fatalf("adjacent spans density = %d, want 1", d[0])
	}
}

func TestChannelDensitiesIgnoresEmpty(t *testing.T) {
	empty := wire(0, 7, 7)
	d := ChannelDensities(1, []Wire{empty}, 1)
	if d[0] != 0 {
		t.Fatalf("empty wire counted: %v", d)
	}
}

func TestChannelDensitiesPanicsOnBadChannel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range channel should panic")
		}
	}()
	ChannelDensities(1, []Wire{wire(5, 0, 1)}, 1)
}

func TestDensityMatchesBruteForce(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := 1 + r.Intn(40)
		wires := make([]Wire, n)
		for i := range wires {
			wires[i] = wire(r.Intn(3), r.Intn(50), r.Intn(50))
		}
		d := ChannelDensities(3, wires, 1)
		for ch := 0; ch < 3; ch++ {
			max := 0
			for x := 0; x < 50; x++ {
				cnt := 0
				for _, w := range wires {
					if int(w.Channel) == ch && w.Span().Contains(x) {
						cnt++
					}
				}
				if cnt > max {
					max = cnt
				}
			}
			if d[ch] != max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refChannelDensities is the form ChannelDensities replaced: every event
// packed with its channel into one key, one global sort, one sweep over
// the runs of equal channel. Kept as the differential reference.
func refChannelDensities(numChannels int, wires []Wire) []int {
	evs := make([]int64, 0, 2*len(wires))
	for i := range wires {
		span := wires[i].Span()
		if span.Empty() {
			continue
		}
		ch := int64(wires[i].Channel) << 41
		evs = append(evs, ch|int64(span.Lo)<<1|1, ch|(int64(span.Hi)+1)<<1)
	}
	slices.Sort(evs)
	dens := make([]int, numChannels)
	for lo := 0; lo < len(evs); {
		hi := lo
		ch := evs[lo] >> 41
		cur, max := 0, 0
		for hi < len(evs) && evs[hi]>>41 == ch {
			cur += int(evs[hi]&1)*2 - 1
			if cur > max {
				max = cur
			}
			hi++
		}
		dens[ch] = max
		lo = hi
	}
	return dens
}

// TestChannelDensitiesMatchesGlobalSort: the bucketed, fanned-out sweep
// returns the densities of the global-sort form on wire sets built to hit
// its edges — touching spans, opens and closes at one x, empty spans,
// empty channels, one channel holding everything — at every worker count.
func TestChannelDensitiesMatchesGlobalSort(t *testing.T) {
	r := rng.New(15)
	for trial := 0; trial < 60; trial++ {
		numChannels := 1 + r.Intn(40)
		xs := 2 + r.Intn(30) // few distinct x: equal-x opens and closes are the norm
		hot := -1            // every wire in one channel
		if trial%5 == 0 {
			hot = r.Intn(numChannels)
		}
		wires := make([]Wire, r.Intn(400))
		for i := range wires {
			ch := hot
			if ch < 0 {
				ch = r.Intn(numChannels) / 2 * 2 % numChannels // odd channels stay empty
			}
			lo := r.Intn(xs)
			switch r.Intn(4) {
			case 0:
				wires[i] = wire(ch, lo, lo) // empty
			case 1:
				wires[i] = wire(ch, lo, lo+1) // shortest extent: opens where others close
			default:
				wires[i] = wire(ch, lo, lo+r.Intn(xs))
			}
		}
		want := refChannelDensities(numChannels, wires)
		for _, workers := range []int{1, 2, 8} {
			if got := ChannelDensities(numChannels, wires, workers); !slices.Equal(got, want) {
				t.Fatalf("trial %d workers %d: densities %v, global sort %v", trial, workers, got, want)
			}
		}
	}
}

// TestChannelDensitiesPanicsOnBadWire: a wire outside the channel range or
// at a negative x is a router bug and panics before any fan-out, at every
// worker count.
func TestChannelDensitiesPanicsOnBadWire(t *testing.T) {
	for _, bad := range []Wire{wire(-1, 0, 1), wire(3, 0, 1), wire(0, -1, 1), wire(0, math.MinInt32, 1)} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("ch%d/%v/w%d", bad.Channel, bad.Span(), workers), func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatal("out-of-range wire should panic")
					}
				}()
				ChannelDensities(3, []Wire{wire(1, 0, 5), bad}, workers)
			})
		}
	}
}

// TestChannelDensitiesAtMaxInt32: a span may end at the largest int32 x,
// so its close event (Hi+1) must be computed after widening; computed in
// int32 it would wrap negative and the two overlapping wires would count
// as one.
func TestChannelDensitiesAtMaxInt32(t *testing.T) {
	const top = math.MaxInt32
	wires := []Wire{wire(0, top-5, top), wire(0, top-3, top), wire(1, top-1, top), wire(1, 0, 1)}
	for _, workers := range []int{1, 2} {
		if got := ChannelDensities(2, wires, workers); !slices.Equal(got, []int{2, 1}) {
			t.Fatalf("workers %d: densities %v, want [2 1]", workers, got)
		}
	}
	if got := refChannelDensities(2, wires); !slices.Equal(got, []int{2, 1}) {
		t.Fatalf("reference densities %v, want [2 1]", got)
	}
}

// TestWireStaysSmall pins the size of the record step 4 writes once per tree
// edge, step 5 streams and the drivers ship between ranks: 28 bytes a wire,
// six int32 fields and the switchable flag (40 with the span and row
// stored, 80 with int fields).
func TestWireStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(Wire{}); size > 28 {
		t.Fatalf("Wire is %d bytes, at most 28 expected", size)
	}
}

func TestWirelength(t *testing.T) {
	wires := []Wire{wire(0, 0, 9), wire(1, 5, 6), wire(2, 5, 5)}
	// Closed intervals: [0,9] has 10 points, [5,6] has 2, and a zero-length
	// connection none.
	if wl := Wirelength(wires); wl != 12 {
		t.Fatalf("wirelength = %d", wl)
	}
}

func TestArea(t *testing.T) {
	// 2 rows of height 10, densities 3 and 0 and 2, pitch 2, width 100:
	// height = 20 + (3+0+2)*2 = 30 -> area 3000.
	if a := Area(100, 2, 10, 2, []int{3, 0, 2}); a != 3000 {
		t.Fatalf("area = %d", a)
	}
}

func TestOtherChannel(t *testing.T) {
	w := Wire{Channel: 4, Switchable: true, ARow: 4, BRow: 4}
	if w.OtherChannel() != 5 {
		t.Fatalf("other = %d", w.OtherChannel())
	}
	w.Channel = 5
	if w.OtherChannel() != 4 {
		t.Fatalf("other = %d", w.OtherChannel())
	}
}

func TestOtherChannelPanicsOnFixedWire(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OtherChannel on fixed wire should panic")
		}
	}()
	w := Wire{Channel: 4}
	w.OtherChannel()
}

func TestResultFinalizeAndScaling(t *testing.T) {
	res := &Result{
		CoreWidth: 100,
		Wires:     []Wire{wire(0, 0, 10), wire(1, 0, 50), wire(1, 20, 60)},
	}
	res.Finalize(3, 2, 10, 2, 1)
	if res.TotalTracks != 3 {
		t.Fatalf("tracks = %d", res.TotalTracks)
	}
	if res.Area != int64(100)*(20+6) {
		t.Fatalf("area = %d", res.Area)
	}
	base := &Result{TotalTracks: 2, Area: 1000, Elapsed: 100}
	res.Elapsed = 50
	if got := res.ScaledTracks(base); got != 1.5 {
		t.Fatalf("scaled tracks = %v", got)
	}
	if got := res.Speedup(base); got != 2 {
		t.Fatalf("speedup = %v", got)
	}
	if got := res.ScaledArea(base); got != float64(res.Area)/1000 {
		t.Fatalf("scaled area = %v", got)
	}
	// Division-by-zero safety.
	zero := &Result{}
	if res.ScaledTracks(zero) != 1 || res.ScaledArea(zero) != 1 {
		t.Fatal("zero baseline should scale to 1")
	}
	if (&Result{}).Speedup(base) != 0 {
		t.Fatal("zero elapsed should give zero speedup")
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	r := &Result{
		Circuit: "x", Algo: "hybrid", Procs: 4,
		Wires: []Wire{
			{Net: 1, Channel: 2, Switchable: true, AX: 9, ARow: 2, BX: 3, BRow: 2},
			{Net: 2, Channel: 0, AX: 4, ARow: 0, BX: 4, BRow: 1},
		},
		ChannelDensity: []int{1, 0, 1}, TotalTracks: 2, Area: 500, Wirelength: 7,
		Feedthroughs: 3, ForcedEdges: 0, CoreWidth: 100,
		SwitchableWires: 1, SwitchFlips: 1, CoarseFlips: 2,
		Elapsed: 1234567,
		Phases:  []Phase{{Name: "steiner", Elapsed: 111, Counters: []Counter{{Name: "trees", Value: 9}}}},
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Circuit != r.Circuit || got.Algo != r.Algo || got.Procs != r.Procs ||
		got.TotalTracks != r.TotalTracks || got.Area != r.Area ||
		got.Elapsed != r.Elapsed || got.CoreWidth != r.CoreWidth {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Wires) != len(r.Wires) {
		t.Fatalf("wire count %d", len(got.Wires))
	}
	for i := range r.Wires {
		if got.Wires[i] != r.Wires[i] {
			t.Fatalf("wire %d: %+v vs %+v", i, got.Wires[i], r.Wires[i])
		}
	}
	if len(got.Phases) != 1 || got.Phases[0].Name != r.Phases[0].Name ||
		got.Phases[0].Elapsed != r.Phases[0].Elapsed {
		t.Fatalf("phases: %+v", got.Phases)
	}
	if len(got.Phases[0].Counters) != 1 || got.Phases[0].Counters[0] != (Counter{Name: "trees", Value: 9}) {
		t.Fatalf("phase counters: %+v", got.Phases[0].Counters)
	}
}

// TestPhasesByteForm pins the on-disk form of Result.Phases, which the
// JSON tags on Phase and Counter define: nanoseconds under elapsedNs, and
// a phase without counters has no counters key.
func TestPhasesByteForm(t *testing.T) {
	r := &Result{Phases: []Phase{
		{Name: "steiner", Elapsed: 1234567, Counters: []Counter{{Name: "segments", Value: 9}}},
		{Name: "coarse", Elapsed: 5, Counters: []Counter{}},
	}}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `"phases":[{"name":"steiner","elapsedNs":1234567,"counters":[{"name":"segments","value":9}]},{"name":"coarse","elapsedNs":5}]`
	if !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("WriteJSON output lacks %s:\n%s", want, buf.Bytes())
	}
}

func TestReadResultJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadResultJSON(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestReadResultJSONRejectsOutOfRangeWire: wire fields are int32, so a
// number past the int32 range is a decode error, not a wrapped value.
func TestReadResultJSONRejectsOutOfRangeWire(t *testing.T) {
	for _, field := range []string{"net", "ch", "lo", "hi", "row", "ax", "ar", "bx", "br"} {
		for _, v := range []string{"2147483648", "-2147483649"} {
			doc := `{"wires":[{"` + field + `":` + v + `}]}`
			if _, err := ReadResultJSON(bytes.NewBufferString(doc)); err == nil {
				t.Errorf("%s accepted", doc)
			}
		}
	}
	doc := `{"wires":[{"lo":-2147483648,"hi":2147483647,"ax":2147483647,"bx":-2147483648}]}`
	if r, err := ReadResultJSON(bytes.NewBufferString(doc)); err != nil || r.Wires[0].Span() != (geom.Interval{Lo: math.MinInt32, Hi: math.MaxInt32}) {
		t.Fatalf("%s: %v", doc, err)
	}
}

// TestRadixSortMatchesSlicesSort: the density sweep's sort against the
// comparison sort it replaced, on buckets of every small length and key
// ranges from one repeated value through a few columns to the largest
// event a wire may produce (x = math.MaxInt32 + 1, shifted over the
// open/close bit).
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	const maxKey = (int64(math.MaxInt32) + 1) << 1
	r := rng.New(77)
	for trial := 0; trial < 400; trial++ {
		n := trial % 70
		if trial%9 == 0 {
			n = 500 + r.Intn(3000)
		}
		var base, spread int64
		switch trial % 4 {
		case 0:
			spread = 1 // all equal
		case 1:
			spread = 64 // a few columns
		case 2:
			base, spread = maxKey-4096, 4097 // the top of the legal range
		default:
			spread = maxKey + 1 // everything
		}
		base += int64(r.Intn(2)) * 300
		keys := make([]int64, n)
		largest := int64(0)
		for i := range keys {
			keys[i] = min(base+int64(r.Uint64()%uint64(spread)), maxKey)
			largest = max(largest, keys[i])
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		passes := (bits.Len64(uint64(largest)) + 7) / 8
		passes += trial % 3 / 2 // sometimes one byte more than the keys need
		tmp := make([]int64, n+trial%2)
		radixSort(keys, tmp, passes)
		if !slices.Equal(keys, want) {
			t.Fatalf("trial %d: n=%d base=%d spread=%d passes=%d: not sorted like slices.Sort", trial, n, base, spread, passes)
		}
	}
}

// FuzzChannelDensities decodes arbitrary bytes into in-range wires — 12
// bytes each: channel, 5 bytes of lo, 5 bytes of length, a shape byte —
// and holds the bucketed radix sweep to the global-sort reference at two
// worker counts. The seeds cover one column, spans ending at the largest
// int32 x and a dense pile of touching spans.
func FuzzChannelDensities(f *testing.F) {
	rec := func(ch byte, lo, length uint64, shape byte) []byte {
		b := []byte{ch}
		for i := 0; i < 5; i++ {
			b = append(b, byte(lo>>(8*i)))
		}
		for i := 0; i < 5; i++ {
			b = append(b, byte(length>>(8*i)))
		}
		return append(b, shape)
	}
	f.Add([]byte{})
	f.Add(rec(0, 0, 0, 0))
	f.Add(append(rec(1, math.MaxInt32-1, 9, 0), rec(1, math.MaxInt32, 0, 0)...))
	f.Add(append(rec(3, math.MaxInt32-7, 7, 0), append(rec(3, math.MaxInt32-2, 2, 1), rec(3, 0, math.MaxInt32, 2)...)...))
	f.Add(append(rec(2, 5, 3, 1), rec(2, 1<<20, 1<<30, 0)...))
	var pile []byte
	for i := uint64(0); i < 40; i++ {
		pile = append(pile, rec(byte(i%3), i%7, i%5, byte(i%4))...)
	}
	f.Add(pile)

	f.Fuzz(func(t *testing.T, data []byte) {
		const numChannels = 5
		var wires []Wire
		for ; len(data) >= 12; data = data[12:] {
			var lo, length int
			for i := 0; i < 5; i++ {
				lo |= int(data[1+i]) << (8 * i)
				length |= int(data[6+i]) << (8 * i)
			}
			lo = min(lo, math.MaxInt32)
			w := wire(int(data[0])%numChannels, lo, min(lo+length, math.MaxInt32))
			if data[11]%4 == 3 {
				w.BX = w.AX // empty
			}
			wires = append(wires, w)
		}
		want := refChannelDensities(numChannels, wires)
		for _, workers := range []int{1, 3} {
			if got := ChannelDensities(numChannels, wires, workers); !slices.Equal(got, want) {
				t.Fatalf("workers %d: densities %v, global sort %v", workers, got, want)
			}
		}
	})
}

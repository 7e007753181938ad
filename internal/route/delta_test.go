package route

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"parroute/internal/geom"
	"parroute/internal/grid"
	"parroute/internal/rng"
)

// requireExactCaches checks every valid peak cache of occ against a full walk
// of its channel, reading the cache fields directly: channelMax would
// recompute an entry instead of checking it.
func requireExactCaches(t testing.TB, occ *Occupancy, when string) {
	t.Helper()
	for ch := 0; ch < occ.Channels; ch++ {
		if !occ.chMaxOK[ch] {
			continue
		}
		var m, cnt int32
		for _, v := range occ.counts.Row(ch) {
			switch {
			case v > m:
				m, cnt = v, 1
			case v == m:
				cnt++
			}
		}
		if occ.chMax[ch] != m || occ.chPeakCnt[ch] != cnt {
			t.Fatalf("%s: channel %d caches peak %d on %d columns, full walk %d on %d", when, ch, occ.chMax[ch], occ.chPeakCnt[ch], m, cnt)
		}
	}
}

// requireFreshPeaks checks every cached peak of occ, and AddCost and MoveCost
// on random spans, against a table rebuilt from the dense counts with every
// cache invalid — the full-walk recompute.
func requireFreshPeaks(t *testing.T, occ *Occupancy, r *rng.RNG, when string) {
	t.Helper()
	fresh := NewOccupancy(occ.Channels, occ.Cols*occ.ColWidth, occ.ColWidth)
	if err := fresh.SetCounts(occ.Counts()); err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < occ.Channels; ch++ {
		if got, want := occ.channelMax(ch), fresh.channelMax(ch); got != want || occ.chPeakCnt[ch] != fresh.chPeakCnt[ch] {
			t.Fatalf("%s: channel %d peak %d on %d columns, full walk %d on %d", when, ch, got, occ.chPeakCnt[ch], want, fresh.chPeakCnt[ch])
		}
	}
	for i := 0; i < 20; i++ {
		from, to := r.Intn(occ.Channels), r.Intn(occ.Channels)
		span := geom.NewInterval(r.Intn(occ.Cols*occ.ColWidth), r.Intn(occ.Cols*occ.ColWidth))
		if got, want := occ.AddCost(to, span), fresh.AddCost(to, span); got != want {
			t.Fatalf("%s: AddCost(%d, %v) = %d, full walk %d", when, to, span, got, want)
		}
		if got, want := occ.MoveCost(from, to, span), fresh.MoveCost(from, to, span); got != want {
			t.Fatalf("%s: MoveCost(%d, %d, %v) = %d, full walk %d", when, from, to, span, got, want)
		}
	}
}

// TestOccupancyDeltaSyncReproducesSum plays the net-wise step-5 protocol on
// two ranks: each adds wires to, and flips wires between channels of, its own
// table and its replica of the sum, and at every sync ships only its
// AppendDelta pairs. After every sync both replicas hold own0+own1 cell for
// cell, with every cache the delta kept exact and peaks and costs equal to a
// full-walk recompute; a snapshot equal to the table yields no pair.
func TestOccupancyDeltaSyncReproducesSum(t *testing.T) {
	const channels, width, colW = 19, 480, 16
	r := rng.New(9)
	var own, shared [2]*Occupancy
	var snap [2][]int32
	type wire struct {
		ch   int
		span geom.Interval
	}
	var wires [2][]wire
	for k := range own {
		own[k] = NewOccupancy(channels, width, colW)
		for i := 0; i < 30; i++ {
			w := wire{r.Intn(channels), geom.NewInterval(r.Intn(width), r.Intn(width))}
			own[k].Add(w.ch, w.span, 1)
			wires[k] = append(wires[k], w)
		}
		shared[k] = own[k].Clone()
		snap[k] = make([]int32, own[k].TableLen())
	}
	for step := 0; step < 600; step++ {
		k := r.Intn(2)
		w := &wires[k][r.Intn(len(wires[k]))]
		to := r.Intn(channels)
		for _, o := range []*Occupancy{own[k], shared[k]} {
			o.Add(w.ch, w.span, -1)
			o.Add(to, w.span, 1)
		}
		w.ch = to
		if r.Intn(8) == 0 {
			shared[k].MoveCost(r.Intn(channels), r.Intn(channels), w.span) // warm some caches
		}
		if step%23 != 0 {
			continue
		}
		var pairs [2][]int32
		for k := range own {
			pairs[k] = own[k].AppendDelta(nil, snap[k])
			if !slices.Equal(snap[k], own[k].Counts()) {
				t.Fatalf("step %d: rank %d: snapshot did not advance to the table", step, k)
			}
			if again := own[k].AppendDelta(nil, snap[k]); len(again) != 0 {
				t.Fatalf("step %d: rank %d: %d pairs against a snapshot equal to the table", step, k, len(again)/2)
			}
		}
		sum := own[0].Counts()
		for i, v := range own[1].Counts() {
			sum[i] += v
		}
		for k := range shared {
			if err := shared[k].ApplyDelta(pairs[1-k]); err != nil {
				t.Fatalf("step %d: rank %d: %v", step, k, err)
			}
			if !slices.Equal(shared[k].Counts(), sum) {
				t.Fatalf("step %d: rank %d: replica differs from own0+own1", step, k)
			}
			requireExactCaches(t, shared[k], "after a sync")
			requireFreshPeaks(t, shared[k], r, "after a sync")
		}
	}
}

// TestOccupancyDeltaBandsStayLazy: what a delta owes the occupancy beyond
// grid.Table's own laziness. A clone keeps counts and caches apart from its
// source, and applying a delta that names one band's channels creates that
// band only and keeps every peak cache valid: channel 19 goes from peak 0 on
// all 20 columns to peak 1 on the 7 the delta raised.
func TestOccupancyDeltaBandsStayLazy(t *testing.T) {
	src := NewOccupancy(64, 320, 16)
	src.Add(19, geom.NewInterval(0, 100), 1) // band 2 only
	pairs := src.AppendDelta(nil, make([]int32, src.TableLen()))
	dst := NewOccupancy(64, 320, 16)
	dst.Add(3, geom.NewInterval(0, 50), 1) // band 0
	dst = dst.Clone()
	if err := dst.ApplyDelta(pairs); err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < dst.Channels; ch++ {
		if b := ch / grid.BandRows; dst.counts.HasSlab(ch) != (b == 0 || b == 2) {
			t.Fatalf("band %d allocated: %v", b, dst.counts.HasSlab(ch))
		}
		if !dst.chMaxOK[ch] {
			t.Fatalf("channel %d lost its peak cache", ch)
		}
	}
	if dst.chMax[19] != 1 || dst.chPeakCnt[19] != 7 {
		t.Fatalf("channel 19 caches peak %d on %d columns, want 1 on 7", dst.chMax[19], dst.chPeakCnt[19])
	}
	if dst.At(19, 2) != 1 || dst.At(3, 1) != 1 {
		t.Fatal("applied delta or cloned counts read wrong")
	}
	dst.Add(3, geom.NewInterval(0, 50), 1)
	if src.At(3, 1) != 0 || dst.At(3, 1) != 2 {
		t.Fatal("clone shares a slab with its source")
	}
}

// FuzzGridDelta feeds arbitrary int32s to ApplyDelta on a small grid and a
// small occupancy that already hold counts: they are applied or refused,
// never a panic. A refused delta leaves the table byte-identical; an
// accepted one is in canonical form, so AppendDelta against the pre-state
// derives the same pairs back, no counter is negative, and the occupancy's
// peaks equal a full-walk recompute.
func FuzzGridDelta(f *testing.F) {
	g := grid.New(5, 96, 16)
	g.AddHoriz(1, geom.NewInterval(0, 60), 2)
	g.AddVert(2, 3, 4, 1)
	seed := g.AppendDelta(nil, make([]int32, g.TableLen()))
	for _, pairs := range [][]int32{seed, seed[:3], {-1, 1}, {int32(g.TableLen()), 1}, {6, -3}, {6, 0}, {7, 1, 6, 1}, {}} {
		raw := make([]byte, 0, 4*len(pairs))
		for _, v := range pairs {
			raw = binary.LittleEndian.AppendUint32(raw, uint32(v))
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		pairs := make([]int32, len(raw)/4)
		for i := range pairs {
			pairs[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		g := grid.New(5, 96, 16)
		g.AddHoriz(1, geom.NewInterval(0, 60), 2)
		g.AddVert(2, 3, 4, 1)
		occ := NewOccupancy(6, 96, 16)
		occ.Add(1, geom.NewInterval(0, 60), 2)
		occ.Add(4, geom.NewInterval(30, 90), 1)
		occ.channelMax(1)

		check := func(name string, err error, before, after []int32) {
			if err != nil {
				if !slices.Equal(before, after) {
					t.Fatalf("%s: a refused delta changed the table", name)
				}
				return
			}
			for i, v := range after {
				if v < 0 {
					t.Fatalf("%s: counter %d is %d after an accepted delta", name, i, v)
				}
			}
		}
		beforeG := gridTable(g)
		err := g.ApplyDelta(pairs)
		check("grid", err, beforeG, gridTable(g))
		if back := g.AppendDelta(nil, beforeG); err == nil && !slices.Equal(back, pairs) {
			t.Fatalf("grid: accepted %v, the tables differ by %v", pairs, back)
		}
		beforeO := occ.Counts()
		err = occ.ApplyDelta(pairs)
		check("occupancy", err, beforeO, occ.Counts())
		if back := occ.AppendDelta(nil, beforeO); err == nil && !slices.Equal(back, pairs) {
			t.Fatalf("occupancy: accepted %v, the tables differ by %v", pairs, back)
		}
		requireFreshPeaks(t, occ, rng.New(1), "after the fuzzed delta")
	})
}

// FuzzOccupancyPeaks decodes bytes, four per step, into writes on a small
// occupancy: a wire added (+1) or one it added removed (−1), a sync delta,
// or a neighbour's channel counts. Deltas lower only what deltas and counts
// added, so every write is one a route can make; a spare bit of the opcode
// revalidates a cache, as a cost query would. After each step every
// valid peak cache must equal a full walk of its channel.
func FuzzOccupancyPeaks(f *testing.F) {
	f.Add([]byte{0, 1, 0, 60, 0, 1, 16, 40, 1, 0, 0, 0})
	f.Add([]byte{3, 2, 0xff, 2, 2, 12, 3, 1, 2, 12, 1, 0, 0, 2, 0, 95})
	f.Add([]byte{0, 4, 30, 90, 2, 0, 5, 4, 1, 0, 0, 0, 3, 4, 0x0f, 1, 2, 1, 2, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const channels, width, colW = 6, 96, 16
		occ := NewOccupancy(channels, width, colW)
		type wire struct {
			ch   int
			span geom.Interval
		}
		var wires []wire
		bg := make([]int32, occ.TableLen())
		for s := 0; s+4 <= len(raw); s += 4 {
			op, a, b, c := raw[s]%4, int(raw[s+1]), int(raw[s+2]), int(raw[s+3])
			switch {
			case op == 0:
				w := wire{a % channels, geom.NewInterval(b%width, c%width)}
				occ.Add(w.ch, w.span, 1)
				wires = append(wires, w)
			case op == 1 && len(wires) > 0:
				i := a % len(wires)
				occ.Add(wires[i].ch, wires[i].span, -1)
				wires = slices.Delete(wires, i, i+1)
			case op == 2:
				var pairs []int32
				for i := a % len(bg); i < len(bg); i += 1 + b%7 {
					if d := int32(c%5) - 2; d != 0 && bg[i]+d >= 0 {
						pairs = append(pairs, int32(i), d)
						bg[i] += d
					}
					c = c/5 + i
				}
				if err := occ.ApplyDelta(pairs); err != nil {
					t.Fatalf("step %d: %v", s/4, err)
				}
			case op == 3:
				ch, counts := a%channels, make([]int32, occ.Cols)
				for col := range counts {
					counts[col] = int32(b>>col&1) + int32(c>>col&1)
					bg[ch*occ.Cols+col] += counts[col]
				}
				if err := occ.AddChannelCounts(ch, counts); err != nil {
					t.Fatalf("step %d: %v", s/4, err)
				}
			}
			requireExactCaches(t, occ, fmt.Sprintf("step %d", s/4))
			if raw[s]&4 != 0 {
				occ.channelMax(a % channels) // revalidate a cache, as a cost query would
			}
		}
	})
}

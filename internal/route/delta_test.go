package route

import (
	"encoding/binary"
	"slices"
	"testing"

	"parroute/internal/geom"
	"parroute/internal/grid"
	"parroute/internal/rng"
)

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
// cell, with peaks and costs equal to a full-walk recompute although only
// the touched channels' caches were invalidated; a snapshot equal to the
// table yields no pair.
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
			requireFreshPeaks(t, shared[k], r, "after a sync")
		}
	}
}

// TestOccupancyDeltaBandsStayLazy: what a delta owes the occupancy beyond
// grid.Table's own laziness. A clone keeps counts and caches apart from its
// source, and applying a delta that names one band's channels creates that
// band only and drops the peak caches of the channels it touched, no other.
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
		if dst.chMaxOK[ch] != (ch != 19) {
			t.Fatalf("channel %d peak cache valid: %v", ch, dst.chMaxOK[ch])
		}
	}
	if dst.At(19, 2) != 1 || dst.At(3, 1) != 1 || dst.channelMax(19) != 1 {
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

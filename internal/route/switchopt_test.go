package route

import (
	"context"
	"fmt"
	"testing"

	"parroute/internal/geom"
	"parroute/internal/grid"
	"parroute/internal/metrics"
	"parroute/internal/rng"
)

func TestOccupancyAddAndCounts(t *testing.T) {
	occ := NewOccupancy(3, 160, 16)
	occ.Add(1, geom.NewInterval(0, 31), 1)
	if occ.At(1, 0) != 1 || occ.At(1, 1) != 1 || occ.At(1, 2) != 0 {
		t.Fatal("Add placed counts wrongly")
	}
	occ.Add(1, geom.NewInterval(0, 31), -1)
	if occ.At(1, 0) != 0 {
		t.Fatal("negative Add did not cancel")
	}
	// Empty span no-op.
	occ.Add(1, geom.Interval{Lo: 1, Hi: 0}, 1)
	if occ.At(1, 0) != 0 {
		t.Fatal("empty span changed occupancy")
	}
}

func TestOccupancyChannelCountsExchange(t *testing.T) {
	a := NewOccupancy(3, 160, 16)
	b := NewOccupancy(3, 160, 16)
	a.Add(2, geom.NewInterval(16, 47), 1)
	counts := a.ChannelCounts(2)
	if err := b.AddChannelCounts(2, counts); err != nil {
		t.Fatal(err)
	}
	if b.At(2, 1) != 1 || b.At(2, 2) != 1 || b.At(2, 0) != 0 {
		t.Fatal("channel counts exchange broken")
	}
	// Counts is a copy: mutating it must not affect a.
	counts[0] = 99
	if a.At(2, 0) == 99 {
		t.Fatal("ChannelCounts returned shared storage")
	}
}

func TestOccupancyCountsSetCounts(t *testing.T) {
	a := NewOccupancy(2, 64, 16)
	a.Add(0, geom.NewInterval(0, 63), 1)
	b := NewOccupancy(2, 64, 16)
	if err := b.SetCounts(a.Counts()); err != nil {
		t.Fatal(err)
	}
	for col := 0; col < 4; col++ {
		if b.At(0, col) != 1 {
			t.Fatal("SetCounts did not copy")
		}
	}
}

func TestOccupancySetCountsLengthMismatch(t *testing.T) {
	if err := NewOccupancy(2, 64, 16).SetCounts([]int32{1}); err == nil {
		t.Fatal("length mismatch should be reported")
	}
	if err := NewOccupancy(2, 64, 16).AddChannelCounts(0, []int32{1}); err == nil {
		t.Fatal("channel counts length mismatch should be reported")
	}
}

func TestMoveCostPrefersEmptierChannel(t *testing.T) {
	occ := NewOccupancy(2, 160, 16)
	span := geom.NewInterval(0, 31)
	occ.Add(0, span, 3) // crowded channel 0
	occ.Add(0, span, 1) // the wire itself
	if cost := occ.MoveCost(0, 1, span); cost >= 0 {
		t.Fatalf("moving from crowded to empty should be negative, got %d", cost)
	}
	// Moving from empty-ish to crowded must be positive.
	occ2 := NewOccupancy(2, 160, 16)
	occ2.Add(1, span, 4)
	occ2.Add(0, span, 1)
	if cost := occ2.MoveCost(0, 1, span); cost <= 0 {
		t.Fatalf("moving into crowded should be positive, got %d", cost)
	}
}

func TestMoveCostPeakAware(t *testing.T) {
	// Channel 0 has a single-column peak the wire covers; channel 1 has
	// uniformly higher squares but a lower peak increase... construct:
	// moving reduces the combined peak -> negative cost even if the
	// squares get worse.
	occ := NewOccupancy(2, 160, 16)
	wire := geom.NewInterval(0, 15) // one column
	occ.Add(0, wire, 1)             // the wire
	occ.Add(0, geom.NewInterval(0, 15), 8)
	occ.Add(1, geom.NewInterval(16, 159), 6) // busy elsewhere, peak 6
	// Channel 0 peak = 9 (col 0); after move: ch0 peak 8, ch1 peak
	// max(6, 1) = 6 -> combined 14 vs 15 before: improvement.
	if cost := occ.MoveCost(0, 1, wire); cost >= 0 {
		t.Fatalf("peak-reducing move should be negative, got %d", cost)
	}
}

func TestAddCostReflectsPeaks(t *testing.T) {
	occ := NewOccupancy(2, 160, 16)
	span := geom.NewInterval(0, 31)
	occ.Add(0, span, 4)
	lo := occ.AddCost(1, span)
	hi := occ.AddCost(0, span)
	if lo >= hi {
		t.Fatalf("adding to empty channel (%d) should be cheaper than to busy (%d)", lo, hi)
	}
	if occ.AddCost(0, geom.Interval{Lo: 1, Hi: 0}) != 0 {
		t.Fatal("empty span should cost nothing")
	}
}

// TestCostsMatchNaiveReference differentially checks the peak-cache fast
// paths of AddCost and MoveCost against a full-walk reference over random
// histories of wire adds and removals, sync deltas and boundary channel
// counts. After every write each valid cache must hold its channel's
// full-walk peak and count; a write that takes a channel's last peak column
// drops its cache, so the lazy recompute gets exercised too.
func TestCostsMatchNaiveReference(t *testing.T) {
	const channels, coreWidth, colWidth = 4, 320, 16
	refPeak := func(occ *Occupancy, ch int) int64 {
		var m int64
		for col := 0; col < occ.Cols; col++ {
			if v := int64(occ.At(ch, col)); v > m {
				m = v
			}
		}
		return m
	}
	refAddCost := func(occ *Occupancy, ch int, span geom.Interval) int64 {
		clone := NewOccupancy(channels, coreWidth, colWidth)
		if err := clone.SetCounts(occ.Counts()); err != nil {
			t.Fatal(err)
		}
		before := refPeak(clone, ch)
		var squares int64
		lo, hi := clone.colOf(span.Lo), clone.colOf(span.Hi)
		for col := lo; col <= hi; col++ {
			squares += 2*int64(clone.At(ch, col)) + 1
		}
		clone.Add(ch, span, 1)
		return (refPeak(clone, ch)-before)*maxWeight + squares
	}
	refMoveCost := func(occ *Occupancy, from, to int, span geom.Interval) int64 {
		clone := NewOccupancy(channels, coreWidth, colWidth)
		if err := clone.SetCounts(occ.Counts()); err != nil {
			t.Fatal(err)
		}
		before := refPeak(clone, from) + refPeak(clone, to)
		var squares int64
		lo, hi := clone.colOf(span.Lo), clone.colOf(span.Hi)
		for col := lo; col <= hi; col++ {
			squares += 2*int64(clone.At(to, col)) + 1 - (2*int64(clone.At(from, col)) - 1)
		}
		clone.Add(from, span, -1)
		clone.Add(to, span, 1)
		after := refPeak(clone, from) + refPeak(clone, to)
		return (after-before)*maxWeight + squares
	}

	r := rng.New(99)
	occ := NewOccupancy(channels, coreWidth, colWidth)
	type placed struct {
		ch   int
		span geom.Interval
	}
	var wires []placed
	// bg is what deltas and channel counts added, counter by counter: a
	// delta lowers no counter below it, so every placed wire stays counted.
	bg := make([]int32, occ.TableLen())
	for step := 0; step < 600; step++ {
		switch op := r.Intn(8); {
		case op == 0 && len(wires) > 0:
			// Remove a random wire: drives counts down.
			i := r.Intn(len(wires))
			occ.Add(wires[i].ch, wires[i].span, -1)
			wires[i] = wires[len(wires)-1]
			wires = wires[:len(wires)-1]
		case op == 1:
			// A sync delta: counters up, or background down.
			var pairs []int32
			for i := r.Intn(8); i < len(bg); i += 1 + r.Intn(16) {
				if d := int32(r.Intn(4)) - min(bg[i], 2); d != 0 {
					pairs = append(pairs, int32(i), d)
					bg[i] += d
				}
			}
			if err := occ.ApplyDelta(pairs); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op == 2:
			// A neighbour's boundary channel.
			ch, counts := r.Intn(channels), make([]int32, occ.Cols)
			for col := range counts {
				counts[col] = int32(r.Intn(3))
				bg[ch*occ.Cols+col] += counts[col]
			}
			if err := occ.AddChannelCounts(ch, counts); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default:
			w := placed{ch: r.Intn(channels),
				span: geom.NewInterval(r.Intn(coreWidth), r.Intn(coreWidth))}
			occ.Add(w.ch, w.span, 1)
			wires = append(wires, w)
		}
		requireExactCaches(t, occ, fmt.Sprintf("step %d", step))
		// Probe a random query against the naive reference.
		span := geom.NewInterval(r.Intn(coreWidth), r.Intn(coreWidth))
		ch := r.Intn(channels)
		if got, want := occ.AddCost(ch, span), refAddCost(occ, ch, span); got != want {
			t.Fatalf("step %d: AddCost(ch=%d, %v) = %d, reference %d", step, ch, span, got, want)
		}
		// MoveCost requires the wire to be counted in from: move one of
		// the placed wires.
		if len(wires) > 0 {
			w := wires[r.Intn(len(wires))]
			to := (w.ch + 1 + r.Intn(channels-1)) % channels
			if got, want := occ.MoveCost(w.ch, to, w.span), refMoveCost(occ, w.ch, to, w.span); got != want {
				t.Fatalf("step %d: MoveCost(%d->%d, %v) = %d, reference %d", step, w.ch, to, w.span, got, want)
			}
		}
	}
}

// TestRemovalKeepsPeakCacheExact guards the one case that drops a cache: a
// removal, by Add or by a sync delta, that leaves a column at the peak keeps
// the cache with one column fewer, and the removal that takes the last peak
// column drops it, so the next read walks the channel.
func TestRemovalKeepsPeakCacheExact(t *testing.T) {
	for _, via := range []string{"Add", "ApplyDelta"} {
		occ := NewOccupancy(2, 160, 16)
		occ.Add(1, geom.NewInterval(0, 159), 1)
		occ.Add(1, geom.NewInterval(0, 15), 1)  // column 0 at 2
		occ.Add(1, geom.NewInterval(32, 47), 1) // column 2 at 2
		remove := func(col int) {
			if via == "Add" {
				occ.Add(1, geom.NewInterval(16*col, 16*col+15), -1)
			} else if err := occ.ApplyDelta([]int32{int32(occ.Cols + col), -1}); err != nil {
				t.Fatal(err)
			}
		}
		if !occ.chMaxOK[1] || occ.chMax[1] != 2 || occ.chPeakCnt[1] != 2 {
			t.Fatalf("%s: set-up caches %v, peak %d on %d columns", via, occ.chMaxOK[1], occ.chMax[1], occ.chPeakCnt[1])
		}
		remove(0)
		if !occ.chMaxOK[1] || occ.chMax[1] != 2 || occ.chPeakCnt[1] != 1 {
			t.Fatalf("%s: a removal that leaves a peak column: cache %v, peak %d on %d columns, want peak 2 on 1",
				via, occ.chMaxOK[1], occ.chMax[1], occ.chPeakCnt[1])
		}
		remove(2)
		if occ.chMaxOK[1] {
			t.Fatalf("%s: the removal of the last peak column kept the cache at peak %d on %d columns", via, occ.chMax[1], occ.chPeakCnt[1])
		}
		if occ.channelMax(1) != 1 || occ.chPeakCnt[1] != int32(occ.Cols) {
			t.Fatalf("%s: recomputed peak %d on %d columns, want 1 on %d", via, occ.chMax[1], occ.chPeakCnt[1], occ.Cols)
		}
	}
}

func TestOptimizeSwitchableBalances(t *testing.T) {
	// 10 overlapping switchable wires all initially in channel 2; the
	// optimizer must move about half into channel 3.
	var wires []metrics.Wire
	for i := 0; i < 10; i++ {
		wires = append(wires, metrics.Wire{
			Net: int32(i), Channel: 2, Switchable: true,
			AX: 0, ARow: 2, BX: 100, BRow: 2,
		})
	}
	occ := NewOccupancy(4, 200, 16)
	occ.AddWires(wires)
	flips, _, err := OptimizeSwitchable(context.Background(), 1, wires, occ, rng.New(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	if flips == 0 {
		t.Fatal("no flips taken on an obviously unbalanced instance")
	}
	in2, in3 := 0, 0
	for i := range wires {
		switch wires[i].Channel {
		case 2:
			in2++
		case 3:
			in3++
		default:
			t.Fatalf("wire moved to channel %d", wires[i].Channel)
		}
	}
	if in2 != 5 || in3 != 5 {
		t.Fatalf("split %d/%d, want 5/5", in2, in3)
	}
	d := metrics.ChannelDensities(4, wires, 1)
	if d[2] != 5 || d[3] != 5 {
		t.Fatalf("densities %v", d)
	}
}

func TestOptimizeSwitchableRespectsFixedWires(t *testing.T) {
	wires := []metrics.Wire{
		{Net: 0, Channel: 1, AX: 0, BX: 50}, // fixed
		{Net: 1, Channel: 1, Switchable: true, AX: 0, ARow: 1, BX: 50, BRow: 1},
	}
	occ := NewOccupancy(3, 100, 16)
	occ.AddWires(wires)
	if _, _, err := OptimizeSwitchable(context.Background(), 1, wires, occ, rng.New(1), 3); err != nil {
		t.Fatal(err)
	}
	if wires[0].Channel != 1 {
		t.Fatal("fixed wire moved")
	}
	if wires[1].Channel != 2 {
		t.Fatal("switchable wire should have escaped the shared channel")
	}
}

func TestOptimizeSwitchableNeverWorsensCost(t *testing.T) {
	// Property: total tracks after optimization <= before, on random
	// instances (greedy peak-aware moves never accept a worsening step).
	r := rng.New(77)
	for trial := 0; trial < 20; trial++ {
		var wires []metrics.Wire
		nch := 6
		for i := 0; i < 40; i++ {
			row := r.Intn(nch - 1)
			ch := row
			if r.Bool() {
				ch = row + 1
			}
			wires = append(wires, metrics.Wire{
				Net: int32(i), Channel: int32(ch), Switchable: true,
				AX: int32(r.Intn(300)), ARow: int32(row), BX: int32(r.Intn(300)), BRow: int32(row),
			})
		}
		before := metrics.TotalTracks(metrics.ChannelDensities(nch, wires, 1))
		occ := NewOccupancy(nch, 300, 16)
		occ.AddWires(wires)
		if _, _, err := OptimizeSwitchable(context.Background(), 1, wires, occ, r.Split(), 3); err != nil {
			t.Fatal(err)
		}
		after := metrics.TotalTracks(metrics.ChannelDensities(nch, wires, 1))
		if after > before {
			t.Fatalf("trial %d: optimization worsened tracks %d -> %d", trial, before, after)
		}
	}
}

// TestOccupancyBandShardingDifferential checks the lazily created row-band
// slabs against a naive flat-array reference: counts, peaks and costs must
// be byte-identical over randomized op sequences (adds, removals,
// transported channel counts, full SetCounts), with wires deliberately
// moved across band boundaries. The granularity is grid.BandRows, the one
// there is.
func TestOccupancyBandShardingDifferential(t *testing.T) {
	const channels, coreWidth, colWidth = 19, 480, 16
	cols := coreWidth / colWidth

	t.Run(fmt.Sprintf("band=%d", grid.BandRows), func(t *testing.T) {
		r := rng.New(1000 + grid.BandRows)
		occ := NewOccupancy(channels, coreWidth, colWidth)
		ref := make([]int32, channels*cols) // naive full-walk reference

		refPeak := func(ch int) int64 {
			var m int64
			for col := 0; col < cols; col++ {
				if v := int64(ref[ch*cols+col]); v > m {
					m = v
				}
			}
			return m
		}
		refAddCost := func(ch int, span geom.Interval) int64 {
			if span.Empty() {
				return 0
			}
			lo, hi := occ.colOf(span.Lo), occ.colOf(span.Hi)
			before := refPeak(ch)
			var spanMax, squares int64
			for col := lo; col <= hi; col++ {
				v := int64(ref[ch*cols+col])
				squares += 2*v + 1
				if v > spanMax {
					spanMax = v
				}
			}
			after := before
			if spanMax+1 > after {
				after = spanMax + 1
			}
			return (after-before)*maxWeight + squares
		}

		type placed struct {
			ch   int
			span geom.Interval
		}
		var wires []placed
		for step := 0; step < 500; step++ {
			switch {
			case len(wires) > 0 && r.Intn(5) == 0:
				i := r.Intn(len(wires))
				occ.Add(wires[i].ch, wires[i].span, -1)
				lo, hi := occ.colOf(wires[i].span.Lo), occ.colOf(wires[i].span.Hi)
				for col := lo; col <= hi; col++ {
					ref[wires[i].ch*cols+col]--
				}
				wires[i] = wires[len(wires)-1]
				wires = wires[:len(wires)-1]
			case r.Intn(20) == 0:
				// Transported channel counts (the parallel boundary sync).
				ch := r.Intn(channels)
				counts := make([]int32, cols)
				for i := range counts {
					counts[i] = int32(r.Intn(3))
				}
				if err := occ.AddChannelCounts(ch, counts); err != nil {
					t.Fatal(err)
				}
				for col, v := range counts {
					ref[ch*cols+col] += v
				}
				// These counts are background, not removable wires; add
				// the inverse later via another AddChannelCounts? No —
				// leave them in, removals only target tracked wires.
			case r.Intn(50) == 0:
				// Full-table replacement through a fresh table round-trip.
				if err := occ.SetCounts(append([]int32(nil), ref...)); err != nil {
					t.Fatal(err)
				}
			default:
				w := placed{ch: r.Intn(channels),
					span: geom.NewInterval(r.Intn(coreWidth), r.Intn(coreWidth))}
				occ.Add(w.ch, w.span, 1)
				lo, hi := occ.colOf(w.span.Lo), occ.colOf(w.span.Hi)
				for col := lo; col <= hi; col++ {
					ref[w.ch*cols+col]++
				}
				wires = append(wires, w)
			}

			// Counts must round-trip byte-identically at every band size.
			got := occ.Counts()
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("step %d: counts[%d] = %d, reference %d", step, i, got[i], ref[i])
				}
			}
			// Random point and cost probes.
			ch, col := r.Intn(channels), r.Intn(cols)
			if got, want := occ.At(ch, col), int(ref[ch*cols+col]); got != want {
				t.Fatalf("step %d: At(%d,%d) = %d, reference %d", step, ch, col, got, want)
			}
			span := geom.NewInterval(r.Intn(coreWidth), r.Intn(coreWidth))
			ch = r.Intn(channels)
			if got, want := occ.AddCost(ch, span), refAddCost(ch, span); got != want {
				t.Fatalf("step %d: AddCost(%d, %v) = %d, reference %d", step, ch, span, got, want)
			}
			if len(wires) > 0 {
				w := wires[r.Intn(len(wires))]
				to := (w.ch + 1 + r.Intn(channels-1)) % channels
				lo, hi := occ.colOf(w.span.Lo), occ.colOf(w.span.Hi)
				fromBefore, toBefore := refPeak(w.ch), refPeak(to)
				var squares int64
				for col := lo; col <= hi; col++ {
					f, tv := int64(ref[w.ch*cols+col]), int64(ref[to*cols+col])
					squares += 2*tv + 1 - (2*f - 1)
				}
				for col := lo; col <= hi; col++ {
					ref[w.ch*cols+col]--
					ref[to*cols+col]++
				}
				want := (refPeak(w.ch)+refPeak(to)-fromBefore-toBefore)*maxWeight + squares
				for col := lo; col <= hi; col++ { // undo the probe
					ref[w.ch*cols+col]++
					ref[to*cols+col]--
				}
				if got := occ.MoveCost(w.ch, to, w.span); got != want {
					t.Fatalf("step %d: MoveCost(%d->%d, %v) = %d, reference %d", step, w.ch, to, w.span, got, want)
				}
			}
		}
	})
}

// TestOccupancyBandsStayLazy pins the sharding's reason to exist: writes
// confined to one row band must leave every other band unallocated.
func TestOccupancyBandsStayLazy(t *testing.T) {
	occ := NewOccupancy(64, 320, 16)
	occ.Add(3, geom.NewInterval(0, 100), 1) // band 0 only
	untouched := func() bool {
		for ch := grid.BandRows; ch < occ.Channels; ch++ {
			if occ.counts.HasSlab(ch) {
				return false
			}
		}
		return true
	}
	if !occ.counts.HasSlab(3) || !untouched() {
		t.Fatal("a one-band write did not allocate exactly its band")
	}
	// Reads of untouched bands see zeros without allocating.
	if occ.At(63, 0) != 0 || occ.AddCost(40, geom.NewInterval(0, 50)) == 0 {
		t.Fatal("untouched-band reads wrong")
	}
	if !untouched() {
		t.Fatal("a read allocated a band")
	}
}

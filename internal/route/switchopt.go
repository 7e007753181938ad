package route

import (
	"context"
	"fmt"
	"math"
	"slices"

	"parroute/internal/geom"
	"parroute/internal/grid"
	"parroute/internal/metrics"
	"parroute/internal/rng"
	"parroute/internal/workpool"
)

// Occupancy tracks per-channel column occupation during step 5. It is the
// fine-grained sibling of the coarse grid: same column quantization, but
// fed with the final step-4 wires rather than step-2 estimates. The
// parallel algorithms preload it with neighbor wires ("background") so a
// worker evaluates flips against everything known to occupy its channels.
//
// The counts are a grid.Table: slabs created on first write. A rank of the
// parallel algorithms only ever writes the channels of its own row block, so
// at million-cell scale its peak occupancy footprint is O(its band of rows),
// not O(the whole design).
type Occupancy struct {
	Channels int
	Cols     int
	ColWidth int
	counts   grid.Table // channel-major column counts
	// chMax caches each channel's peak column count, and chPeakCnt how many
	// columns attain it, so AddCost and MoveCost only walk the affected
	// span. Every write keeps a valid entry exact column by column
	// (notePeak); only a write that takes the last column off the peak
	// drops it, and channelMax then recomputes lazily.
	chMax     []int32
	chPeakCnt []int32
	chMaxOK   []bool
}

// NewOccupancy returns an empty occupancy table.
func NewOccupancy(channels, coreWidth, colWidth int) *Occupancy {
	if colWidth <= 0 {
		// Constructor contract: a non-positive quantum is a caller bug,
		// never a data condition (the router passes grid.ColWidth).
		panic(fmt.Sprintf("route: occupancy colWidth %d must be positive", colWidth)) //lint:allow panic-in-library documented constructor invariant
	}
	cols := (geom.Max(coreWidth, 1) + colWidth - 1) / colWidth
	o := &Occupancy{Channels: channels, Cols: cols, ColWidth: colWidth,
		counts: grid.NewTable(channels, cols),
		chMax:  make([]int32, channels), chPeakCnt: make([]int32, channels),
		chMaxOK: make([]bool, channels)}
	for ch := range o.chMaxOK {
		o.chMaxOK[ch] = true // empty channels peak at 0, on every column
		o.chPeakCnt[ch] = int32(cols)
	}
	return o
}

// channelMax returns the peak column count of channel ch, recomputing the
// cache (peak and peak-column count) if it was invalidated.
func (o *Occupancy) channelMax(ch int) int32 {
	if !o.chMaxOK[ch] {
		row := o.counts.Row(ch)
		var m, cnt int32
		for _, v := range row {
			switch {
			case v > m:
				m, cnt = v, 1
			case v == m:
				cnt++
			}
		}
		o.chMax[ch] = m
		o.chPeakCnt[ch] = cnt
		o.chMaxOK[ch] = true
	}
	return o.chMax[ch]
}

func (o *Occupancy) colOf(x int32) int { return geom.Clamp(int(x)/o.ColWidth, 0, o.Cols-1) }

// notePeak keeps channel ch's peak cache exact as one of its columns goes
// from v to w. Counts are never negative, so a valid cache holds the true
// peak and the exact number of columns at it; a channel whose last peak
// column drops loses its cache, since the next peak is unknown without a
// walk.
func (o *Occupancy) notePeak(ch int, v, w int32) {
	if !o.chMaxOK[ch] {
		return
	}
	switch p := o.chMax[ch]; {
	case w > p:
		o.chMax[ch], o.chPeakCnt[ch] = w, 1
	case w == p && v != p:
		o.chPeakCnt[ch]++
	case v == p && w < p:
		o.chPeakCnt[ch]--
		o.chMaxOK[ch] = o.chPeakCnt[ch] > 0
	}
}

// Add adjusts channel ch's occupation over span by delta.
func (o *Occupancy) Add(ch int, span geom.Interval, delta int32) {
	if span.Empty() {
		return
	}
	lo, hi := o.colOf(span.Lo), o.colOf(span.Hi)
	row := o.counts.RowMut(ch)
	for col := lo; col <= hi; col++ {
		v := row[col]
		row[col] = v + delta
		o.notePeak(ch, v, v+delta)
	}
}

// AddWires loads a set of wires into the table.
func (o *Occupancy) AddWires(wires []metrics.Wire) {
	for i := range wires {
		o.Add(int(wires[i].Channel), wires[i].Span(), 1)
	}
}

// At returns the occupation of channel ch at column col.
func (o *Occupancy) At(ch, col int) int { return int(o.counts.Row(ch)[col]) }

// ChannelCounts returns a copy of one channel's column counts; the
// parallel algorithms exchange these slices for shared boundary channels.
func (o *Occupancy) ChannelCounts(ch int) []int32 {
	return append([]int32(nil), o.counts.Row(ch)...)
}

// AddChannelCounts adds externally supplied column counts into channel
// ch. The counts arrive from other workers over the transport, so they are
// checked in full before the first write: the channel's length, no negative
// count and no sum past MaxInt32 (MoveCost and AddCost rely on counts never
// being negative). A refused slice leaves the table as it was.
func (o *Occupancy) AddChannelCounts(ch int, counts []int32) error {
	if len(counts) != o.Cols {
		return fmt.Errorf("route: channel counts length %d, want %d", len(counts), o.Cols)
	}
	cur := o.counts.Row(ch)
	for col, v := range counts {
		if v < 0 || int64(cur[col])+int64(v) > math.MaxInt32 {
			return fmt.Errorf("route: channel count %d at column %d on a counter at %d", v, col, cur[col])
		}
	}
	row := o.counts.RowMut(ch)
	for col, v := range counts {
		old := row[col]
		row[col] += v
		o.notePeak(ch, old, row[col])
	}
	return nil
}

// Clone returns a deep copy, peak caches included.
func (o *Occupancy) Clone() *Occupancy {
	out := *o
	out.counts = o.counts.Clone()
	out.chMax = slices.Clone(o.chMax)
	out.chPeakCnt = slices.Clone(o.chPeakCnt)
	out.chMaxOK = slices.Clone(o.chMaxOK)
	return &out
}

// TableLen, AppendDelta and ApplyDelta keep an occupancy replicated across
// the net-wise ranks in sync by (index, change) pairs over the channel-major
// counts; see grid.Table. A delta crossed the transport: it is checked whole
// before the first write, and each counter it changes updates its channel's
// peak cache as an Add would.
func (o *Occupancy) TableLen() int { return o.counts.Len() }

func (o *Occupancy) AppendDelta(dst, snap []int32) []int32 {
	return o.counts.AppendDelta(dst, snap, 0)
}

func (o *Occupancy) ApplyDelta(pairs []int32) error {
	if err := o.counts.CheckDelta(pairs, 0); err != nil {
		return err
	}
	o.counts.ApplyDelta(pairs, 0, func(ch, _ int, v, w int32) { o.notePeak(ch, v, w) })
	return nil
}

// maxWeight scales the peak-density component of MoveCost above any
// possible sum-of-squares tiebreak.
const maxWeight = 1 << 24

// AddCost returns the cost of adding a wire spanning span to channel ch:
// the peak-density increase weighted above a sum-of-squares tiebreak, on
// the same scale as MoveCost. Step 4 uses it to pick the cheaper channel
// for a switchable connection as it streams wires into the occupancy.
//
// Only the covered columns are walked: the post-add peak is the larger of
// the cached channel peak and the span's pre-add peak plus one, which is
// exactly the full-walk value (the peak outside the span never exceeds
// the channel peak).
func (o *Occupancy) AddCost(ch int, span geom.Interval) int64 {
	if span.Empty() {
		return 0
	}
	lo, hi := o.colOf(span.Lo), o.colOf(span.Hi)
	max := int64(o.channelMax(ch))
	row := o.counts.Row(ch)
	var spanMax, squares int64
	for col := lo; col <= hi; col++ {
		v := int64(row[col])
		squares += 2*v + 1
		if v > spanMax {
			spanMax = v
		}
	}
	maxAfter := max
	if spanMax+1 > maxAfter {
		maxAfter = spanMax + 1
	}
	return (maxAfter-max)*maxWeight + squares
}

// MoveCost returns the cost delta of moving a wire spanning span from
// channel from to channel to; negative means the move improves matters.
// The wire must currently be counted in from.
//
// The primary term is the change in peak column density of the two
// channels — the track count a channel router needs, which is what TWGR's
// step 5 minimizes ("evaluating the channel track change when the segment
// is flipped to the opposite channel"). Sum-of-squares congestion breaks
// ties so density still spreads when the peak is unaffected, enabling
// later improving moves.
// Only the covered columns are walked (counts are never negative: every
// table is a sum of wire adds). The post-add peak of to follows the
// AddCost argument; the post-removal peak of from is the cached peak when
// any column outside the span still attains it, and exactly one less when
// every peak column lies in the span (then all of them drop together, and
// no outside column can exceed peak-1).
func (o *Occupancy) MoveCost(from, to int, span geom.Interval) int64 {
	if span.Empty() {
		return 0
	}
	lo, hi := o.colOf(span.Lo), o.colOf(span.Hi)
	maxFrom := int64(o.channelMax(from))
	maxTo := int64(o.channelMax(to))
	fromRow, toRow := o.counts.Row(from), o.counts.Row(to)

	var spanMaxTo, squares int64
	var fromPeakInSpan int32
	for col := lo; col <= hi; col++ {
		f := int64(fromRow[col])
		t := int64(toRow[col])
		// Squares delta: -(2f-1) for the removal, +(2t+1) for the add.
		squares += 2*t + 1 - (2*f - 1)
		if t > spanMaxTo {
			spanMaxTo = t
		}
		if f == maxFrom {
			fromPeakInSpan++
		}
	}
	maxFromAfter := maxFrom
	if maxFrom > 0 && fromPeakInSpan == o.chPeakCnt[from] {
		maxFromAfter--
	}
	maxToAfter := maxTo
	if spanMaxTo+1 > maxToAfter {
		maxToAfter = spanMaxTo + 1
	}
	deltaMax := (maxFromAfter + maxToAfter) - (maxFrom + maxTo)
	return deltaMax*maxWeight + squares
}

// SwitchFlips is what a step-5 flip is: the n switchable wires with an
// extent, the hull of flip i — it reads and writes channels Row and Row+1,
// counts and peak caches, and nothing else — and flip, which moves wire i to
// its opposite channel when that lowers the congestion cost and reports
// whether it did. How a pass visits them is the caller's: OptimizeSwitchable
// and the net-wise driver both execute this one body. Listing the wires is a
// pass over all of them and runs on up to workers goroutines
// (workpool.Collect); the only error is ctx's.
func SwitchFlips(ctx context.Context, workers int, occ *Occupancy, wires []metrics.Wire) (n int, hull func(i int) workpool.Hull, flip func(i int) bool, err error) {
	switchable, err := workpool.Collect(ctx, workers, len(wires), func(i int) bool {
		return wires[i].Switchable && !wires[i].Span().Empty()
	})
	hull = func(i int) workpool.Hull {
		row := wires[switchable[i]].ARow
		return workpool.Hull{Lo: row, Hi: row + 1}
	}
	flip = func(i int) bool {
		w := &wires[switchable[i]]
		other, span := w.OtherChannel(), w.Span()
		if occ.MoveCost(int(w.Channel), other, span) >= 0 {
			return false
		}
		occ.Add(int(w.Channel), span, -1)
		occ.Add(other, span, 1)
		w.Channel = int32(other)
		return true
	}
	return len(switchable), hull, flip, err
}

// OptimizeSwitchable performs TWGR step 5: random sweeps over the
// switchable wires, flipping each to the opposite channel whenever that
// lowers the congestion cost. wires is mutated in place (Channel fields);
// occ must already contain every wire (and any background). It returns the
// number of flips taken and of switchable wires there were to flip.
//
// The visit order is part of the result, so each pass is an ordered band
// sweep (workpool.Sweep) on up to workers goroutines over the flips' hulls.
func OptimizeSwitchable(ctx context.Context, workers int, wires []metrics.Wire, occ *Occupancy, r *rng.RNG, passes int) (flips, switchable int, err error) {
	n, hull, flip, err := SwitchFlips(ctx, workers, occ, wires)
	if err == nil {
		flips, err = sweepFlips(ctx, workers, occ.Channels, occ.counts.Reserve, r, passes, n, hull, flip)
	}
	return flips, n, err
}

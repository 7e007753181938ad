// Package metrics defines the routing result vocabulary (wires in
// channels) and the quality measures the paper reports: per-channel track
// counts (channel density), their total, and the chip-area model.
package metrics

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"parroute/internal/geom"
	"parroute/internal/workpool"
)

// Wire is one horizontal run placed in a routing channel. Switchable wires
// (both endpoints electrically equivalent on the opposite cell edge, or
// feedthrough pins) may sit in either channel adjacent to their row;
// Channel records the current choice. Every number is int32 (28 B): its
// values fit circuit.MaxCoord, which is checked where they enter the
// process. A wire holds only what its anchors do not say: its extent is
// Span and its row Row, both derived from them.
type Wire struct {
	Net     int32
	Channel int32
	// Endpoint anchors: the (x, row) of the two connection points the
	// wire joins. The detailed channel router derives its vertical
	// constraints from them: an endpoint in the row above the channel is
	// a top-edge contact, one in the row below a bottom-edge contact.
	AX, ARow int32
	BX, BRow int32
	// Switchable marks step-5 candidates: both anchors in one cell row,
	// whose two adjacent channels (Row and Row+1) the wire may occupy.
	Switchable bool
}

// Span is the track-occupying extent between the anchors; a zero-length
// connection occupies no track.
func (w *Wire) Span() geom.Interval {
	if w.AX == w.BX {
		return geom.Interval{Lo: 1, Hi: 0}
	}
	return geom.Interval{Lo: min(w.AX, w.BX), Hi: max(w.AX, w.BX)}
}

// Row is a switchable wire's cell row, the lower of the two channels it
// may occupy: its anchors' row. It is 0 for every other wire.
func (w *Wire) Row() int32 {
	if !w.Switchable {
		return 0
	}
	return w.ARow
}

// OtherChannel returns the alternative channel of a switchable wire.
// It panics for non-switchable wires.
func (w *Wire) OtherChannel() int {
	if !w.Switchable {
		panic("metrics: OtherChannel on non-switchable wire") //lint:allow panic-in-library documented contract: callers filter on Switchable
	}
	if w.Channel == w.ARow {
		return int(w.ARow) + 1
	}
	return int(w.ARow)
}

// ChannelDensities returns, per channel, the maximum number of wires
// overlapping any x position — the track count a channel router would need
// (without vertical-constraint conflicts), which is the quantity TWGR
// minimizes.
//
// Events are bucketed by channel (count, prefix sum, fill) and each
// channel's bucket is sorted and swept on its own, on up to workers
// goroutines: buckets are disjoint slices and each writes only its own
// density, so the result is the same at every worker count. The sort is an
// LSD radix sort over as many bytes as the largest event has — the keys
// are small non-negative integers, which a comparison sort cannot exploit,
// while a dense per-column count could not hold the x range wires may
// legally span.
func ChannelDensities(numChannels int, wires []Wire, workers int) []int {
	off := make([]int, numChannels+1)
	var maxEv int64
	for i := range wires {
		w := &wires[i]
		span := w.Span()
		if span.Empty() {
			continue
		}
		if w.Channel < 0 || int(w.Channel) >= numChannels {
			// A wire outside the channel range means a router bug, not bad
			// input: every step that produces wires clamps to the circuit's
			// channels.
			panic(fmt.Sprintf("metrics: wire in channel %d of %d", w.Channel, numChannels)) //lint:allow panic-in-library router invariant: wires are produced in range
		}
		if span.Lo < 0 {
			// Same class of invariant as the channel check: wire spans live
			// inside the non-negative core extent, which the event keys
			// (x shifted over the open/close bit) rely on.
			panic(fmt.Sprintf("metrics: wire span [%d,%d] outside packable range", span.Lo, span.Hi)) //lint:allow panic-in-library router invariant: spans are in-core
		}
		off[w.Channel+1] += 2
	}
	for ch := 0; ch < numChannels; ch++ {
		off[ch+1] += off[ch]
	}
	// An event is x with open/close in the low bit (0 = close, so closes
	// sort before opens at the same x), which keeps the sorts
	// comparator-free.
	evs := make([]int64, off[numChannels])
	cursor := slices.Clone(off[:numChannels])
	for i := range wires {
		w := &wires[i]
		span := w.Span()
		if span.Empty() {
			continue
		}
		k := cursor[w.Channel]
		evs[k], evs[k+1] = int64(span.Lo)<<1|1, (int64(span.Hi)+1)<<1
		cursor[w.Channel] = k + 2
		maxEv = max(maxEv, evs[k+1])
	}
	dens := make([]int, numChannels)
	largest := 0
	for ch := 0; ch < numChannels; ch++ {
		largest = max(largest, off[ch+1]-off[ch])
	}
	passes := (bits.Len64(uint64(maxEv)) + 7) / 8
	tmps := make([][]int64, max(workers, 1)) // per-worker scatter buffers, sized on first use
	// The sweep returns nil and the background context never ends.
	_ = workpool.Do(context.Background(), workers, numChannels, func(w, ch int) error {
		bucket := evs[off[ch]:off[ch+1]]
		if tmps[w] == nil {
			tmps[w] = make([]int64, largest)
		}
		radixSort(bucket, tmps[w], passes)
		cur, peak := 0, 0
		for _, ev := range bucket {
			cur += int(ev&1)*2 - 1 // low bit: 1 = open (+1), 0 = close (-1)
			if cur > peak {
				peak = cur
			}
		}
		dens[ch] = peak
		return nil
	})
	return dens
}

// radixSort sorts non-negative keys that fit in passes bytes, ascending,
// least significant byte first; tmp is scratch at least as long as keys.
// A byte position on which all keys agree costs only its counting pass.
func radixSort(keys, tmp []int64, passes int) {
	if len(keys) < 2 {
		return
	}
	src, dst := keys, tmp[:len(keys)]
	for shift := 0; shift < passes*8; shift += 8 {
		var count [256]int
		for _, k := range src {
			count[k>>shift&0xff]++
		}
		if count[src[0]>>shift&0xff] == len(src) {
			continue
		}
		pos := 0
		for d, n := range count {
			count[d] = pos
			pos += n
		}
		for _, k := range src {
			d := k >> shift & 0xff
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// TotalTracks sums channel densities — the paper's "track number".
func TotalTracks(densities []int) int {
	t := 0
	for _, d := range densities {
		t += d
	}
	return t
}

// Wirelength sums the horizontal spans of all wires.
func Wirelength(wires []Wire) int64 {
	var wl int64
	for i := range wires {
		wl += int64(wires[i].Span().Len())
	}
	return wl
}

// TrackPitch is the channel height one track contributes to the area model,
// in the same units as cell height.
const TrackPitch = 2

// Area models the chip area the way the paper's quality metric does: core
// width (the widest row, which grows with inserted feedthroughs) times
// total height, where each channel contributes its density in track
// pitches and each row its cell height.
func Area(coreWidth, rows, cellHeight, trackPitch int, densities []int) int64 {
	h := int64(rows) * int64(cellHeight)
	for _, d := range densities {
		h += int64(d) * int64(trackPitch)
	}
	return int64(coreWidth) * h
}

// Result is the outcome of one routing run.
type Result struct {
	Circuit string
	Algo    string
	Procs   int

	Wires           []Wire
	ChannelDensity  []int
	TotalTracks     int
	Area            int64
	Wirelength      int64
	Feedthroughs    int
	ForcedEdges     int // step-4 connections that needed non-adjacent fallback
	CoreWidth       int
	SwitchableWires int
	SwitchFlips     int // step-5 flips actually taken
	CoarseFlips     int // step-2 bend flips actually taken

	Elapsed time.Duration
	Phases  []Phase

	// Degraded marks a run that lost a rank mid-phase and fell back to
	// the serial algorithm; the wires are the serial result.
	Degraded bool
	// Faults tallies injected chaos faults and real deadline misses.
	// Deliberately excluded from the JSON form: a chaos run that loses no
	// rank must serialize byte-identically to its fault-free twin, which
	// is the soak tier's core assertion.
	Faults *FaultReport
}

// FaultReport summarizes transport faults observed during a run (chaos
// injection plus real deadline misses): a plain copy of mp.FaultCounters.
type FaultReport struct {
	Sends, Delays, DeadlineMisses, Crashes int64
}

func (f FaultReport) String() string {
	return fmt.Sprintf("sends=%d delays=%d deadline-misses=%d crashes=%d",
		f.Sends, f.Delays, f.DeadlineMisses, f.Crashes)
}

// Phase is the one per-stage record: the wall time of one named pipeline
// stage plus the stage-scoped counters reported during it. Result.Phases,
// the parallel Summary and `twgr -trace` all carry it as is; the JSON
// tags are its on-disk form in both files.
type Phase struct {
	Name     string        `json:"name"`
	Elapsed  time.Duration `json:"elapsedNs"`
	Counters []Counter     `json:"counters,omitempty"`
}

// Counter is one named stage-scoped tally attached to a Phase.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Finalize computes the derived quality numbers from Wires and the
// geometry parameters, filling ChannelDensity, TotalTracks, Wirelength and
// Area in place. The density sweep fans out on up to workers goroutines.
func (r *Result) Finalize(numChannels, rows, cellHeight, trackPitch, workers int) {
	r.ChannelDensity = ChannelDensities(numChannels, r.Wires, workers)
	r.TotalTracks = TotalTracks(r.ChannelDensity)
	r.Wirelength = Wirelength(r.Wires)
	r.Area = Area(r.CoreWidth, rows, cellHeight, trackPitch, r.ChannelDensity)
}

// ScaledTracks returns r's track count relative to a baseline run — the
// paper's "scaled track" quality measure (1.00 means identical quality).
func (r *Result) ScaledTracks(baseline *Result) float64 {
	if baseline.TotalTracks == 0 {
		return 1
	}
	return float64(r.TotalTracks) / float64(baseline.TotalTracks)
}

// ScaledArea returns r's area relative to a baseline run.
func (r *Result) ScaledArea(baseline *Result) float64 {
	if baseline.Area == 0 {
		return 1
	}
	return float64(r.Area) / float64(baseline.Area)
}

// Speedup returns the baseline's elapsed time divided by r's.
func (r *Result) Speedup(baseline *Result) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(baseline.Elapsed) / float64(r.Elapsed)
}

package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// jsonResult is the stable on-disk form of a Result, as ReadResultJSON reads
// it and AppendJSON writes it. Wires are stored flat; durations in ns.
type jsonResult struct {
	Circuit string `json:"circuit"`
	Algo    string `json:"algo"`
	Procs   int    `json:"procs"`

	Wires           []jsonWire `json:"wires"`
	ChannelDensity  []int      `json:"channelDensity"`
	TotalTracks     int        `json:"totalTracks"`
	Area            int64      `json:"area"`
	Wirelength      int64      `json:"wirelength"`
	Feedthroughs    int        `json:"feedthroughs"`
	ForcedEdges     int        `json:"forcedEdges"`
	CoreWidth       int        `json:"coreWidth"`
	SwitchableWires int        `json:"switchableWires"`
	SwitchFlips     int        `json:"switchFlips"`
	CoarseFlips     int        `json:"coarseFlips"`
	ElapsedNS       int64      `json:"elapsedNs"`
	Phases          []Phase    `json:"phases,omitempty"`
	// Degraded is omitted when false so fault-free and non-degraded chaos
	// runs stay byte-identical. Faults (see Result.Faults) never
	// serialize, for the same reason.
	Degraded bool `json:"degraded,omitempty"`
}

// jsonWire has Wire's int32 fields: decoding refuses a number past them.
type jsonWire struct {
	Net        int32 `json:"net"`
	Channel    int32 `json:"ch"`
	Lo         int32 `json:"lo"`
	Hi         int32 `json:"hi"`
	Switchable bool  `json:"sw,omitempty"`
	Row        int32 `json:"row,omitempty"`
	AX         int32 `json:"ax"`
	ARow       int32 `json:"ar"`
	BX         int32 `json:"bx"`
	BRow       int32 `json:"br"`
}

// WriteJSON serializes the result: AppendJSON's bytes and a newline.
func (r *Result) WriteJSON(w io.Writer) error {
	_, err := w.Write(append(r.AppendJSON(nil), '\n'))
	return err
}

// AppendJSON appends the result's JSON form to dst in one pass: byte for
// byte what encoding/json writes for jsonResult, without copying the wires
// into jsonWire values or reflecting over them.
func (r *Result) AppendJSON(dst []byte) []byte {
	dst = appendMarshal(dst, `{"circuit":`, r.Circuit)
	dst = appendMarshal(dst, `,"algo":`, r.Algo)
	dst = appendInt(dst, `,"procs":`, r.Procs)
	dst = append(dst, `,"wires":[`...) // never null, even for nil Wires
	for i := range r.Wires {
		w := &r.Wires[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendInt(dst, `{"net":`, w.Net)
		dst = appendInt(dst, `,"ch":`, w.Channel)
		span := w.Span()
		dst = appendInt(dst, `,"lo":`, span.Lo)
		dst = appendInt(dst, `,"hi":`, span.Hi)
		if w.Switchable {
			dst = append(dst, `,"sw":true`...)
		}
		if row := w.Row(); row != 0 {
			dst = appendInt(dst, `,"row":`, row)
		}
		dst = appendInt(dst, `,"ax":`, w.AX)
		dst = appendInt(dst, `,"ar":`, w.ARow)
		dst = appendInt(dst, `,"bx":`, w.BX)
		dst = append(appendInt(dst, `,"br":`, w.BRow), '}')
	}
	dst = append(dst, ']')
	dst = appendMarshal(dst, `,"channelDensity":`, r.ChannelDensity)
	dst = appendInt(dst, `,"totalTracks":`, r.TotalTracks)
	dst = appendInt(dst, `,"area":`, r.Area)
	dst = appendInt(dst, `,"wirelength":`, r.Wirelength)
	dst = appendInt(dst, `,"feedthroughs":`, r.Feedthroughs)
	dst = appendInt(dst, `,"forcedEdges":`, r.ForcedEdges)
	dst = appendInt(dst, `,"coreWidth":`, r.CoreWidth)
	dst = appendInt(dst, `,"switchableWires":`, r.SwitchableWires)
	dst = appendInt(dst, `,"switchFlips":`, r.SwitchFlips)
	dst = appendInt(dst, `,"coarseFlips":`, r.CoarseFlips)
	dst = appendInt(dst, `,"elapsedNs":`, r.Elapsed)
	if len(r.Phases) > 0 {
		dst = appendMarshal(dst, `,"phases":`, r.Phases)
	}
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	return append(dst, '}')
}

// appendInt appends key and v.
func appendInt[T ~int | ~int32 | ~int64](dst []byte, key string, v T) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// appendMarshal appends key and encoding/json's bytes for a short part.
func appendMarshal(dst []byte, key string, v any) []byte {
	b, _ := json.Marshal(v) // strings, []int and []Phase always marshal
	return append(append(dst, key...), b...)
}

// ReadResultJSON parses a result written by WriteJSON. A wire's "lo", "hi"
// and "row" are what its anchors give (Wire.Span, Wire.Row), and a
// switchable wire's anchors share a row whose channels hold it; a wire
// that says otherwise is refused, since Wire keeps only the anchors.
func ReadResultJSON(rd io.Reader) (*Result, error) {
	var jr jsonResult
	if err := json.NewDecoder(rd).Decode(&jr); err != nil {
		return nil, fmt.Errorf("metrics: decoding result: %w", err)
	}
	r := &Result{
		Circuit: jr.Circuit, Algo: jr.Algo, Procs: jr.Procs,
		ChannelDensity: jr.ChannelDensity, TotalTracks: jr.TotalTracks,
		Area: jr.Area, Wirelength: jr.Wirelength,
		Feedthroughs: jr.Feedthroughs, ForcedEdges: jr.ForcedEdges,
		CoreWidth: jr.CoreWidth, SwitchableWires: jr.SwitchableWires,
		SwitchFlips: jr.SwitchFlips, CoarseFlips: jr.CoarseFlips,
		Elapsed: time.Duration(jr.ElapsedNS), Phases: jr.Phases, Degraded: jr.Degraded,
	}
	r.Wires = make([]Wire, len(jr.Wires))
	for i, jw := range jr.Wires {
		w := Wire{
			Net: jw.Net, Channel: jw.Channel, Switchable: jw.Switchable,
			AX: jw.AX, ARow: jw.ARow, BX: jw.BX, BRow: jw.BRow,
		}
		if span := w.Span(); jw.Lo != span.Lo || jw.Hi != span.Hi {
			return nil, fmt.Errorf("metrics: wire %d: lo/hi [%d,%d] differ from its anchors' %v", i, jw.Lo, jw.Hi, span)
		}
		if jw.Row != w.Row() {
			return nil, fmt.Errorf("metrics: wire %d: row %d differs from its anchors' %d", i, jw.Row, w.Row())
		}
		if w.Switchable && w.ARow != w.BRow {
			return nil, fmt.Errorf("metrics: switchable wire %d: anchor rows %d and %d differ", i, w.ARow, w.BRow)
		}
		if w.Switchable && w.Channel != w.ARow && int64(w.Channel) != int64(w.ARow)+1 {
			return nil, fmt.Errorf("metrics: switchable wire %d: channel %d is off its row %d", i, w.Channel, w.ARow)
		}
		r.Wires[i] = w
	}
	return r, nil
}

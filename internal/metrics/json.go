package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"parroute/internal/geom"
)

// jsonResult is the stable on-disk form of a Result. Wires are stored
// flat; durations in nanoseconds.
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

type jsonWire struct {
	Net        int  `json:"net"`
	Channel    int  `json:"ch"`
	Lo         int  `json:"lo"`
	Hi         int  `json:"hi"`
	Switchable bool `json:"sw,omitempty"`
	Row        int  `json:"row,omitempty"`
	AX         int  `json:"ax"`
	ARow       int  `json:"ar"`
	BX         int  `json:"bx"`
	BRow       int  `json:"br"`
}

// WriteJSON serializes the result.
func (r *Result) WriteJSON(w io.Writer) error {
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
	return json.NewEncoder(w).Encode(&jr)
}

// ReadResultJSON parses a result written by WriteJSON.
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
		r.Wires[i] = Wire{
			Net: jw.Net, Channel: jw.Channel,
			Span:       geom.Interval{Lo: jw.Lo, Hi: jw.Hi},
			Switchable: jw.Switchable, Row: jw.Row,
			AX: jw.AX, ARow: jw.ARow, BX: jw.BX, BRow: jw.BRow,
		}
	}
	return r, nil
}

package pipeline

import (
	"encoding/json"
	"fmt"
	"io"

	"parroute/internal/metrics"
)

// TraceSchema identifies the on-disk form of a per-stage timeline written
// by `twgr -trace`. Readers reject unknown schemas.
const TraceSchema = "parroute-trace/2"

// Trace is the machine-readable per-stage timeline of one routing run: the
// run's identity and its Result.Phases, stage names, wall times and
// stage-scoped counters, in the same form Result.WriteJSON gives them.
type Trace struct {
	Schema  string          `json:"schema"`
	Circuit string          `json:"circuit,omitempty"`
	Algo    string          `json:"algo,omitempty"`
	Procs   int             `json:"procs,omitempty"`
	Stages  []metrics.Phase `json:"stages"`
}

// NewTrace is the trace view of a finished run. Serial and parallel runs
// both go through it: a parallel run's phases are already merged across
// ranks in res.
func NewTrace(res *metrics.Result) *Trace {
	return &Trace{Schema: TraceSchema, Circuit: res.Circuit, Algo: res.Algo, Procs: res.Procs, Stages: res.Phases}
}

// WriteTrace serializes the trace as indented JSON.
func WriteTrace(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadTrace parses a trace and validates its schema.
func ReadTrace(rd io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(rd).Decode(&t); err != nil {
		return nil, fmt.Errorf("pipeline: decoding trace: %w", err)
	}
	if t.Schema != TraceSchema {
		return nil, fmt.Errorf("pipeline: trace schema %q, want %q", t.Schema, TraceSchema)
	}
	return &t, nil
}

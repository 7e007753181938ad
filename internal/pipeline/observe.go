package pipeline

import (
	"time"

	"parroute/internal/metrics"
)

// PhaseRecorder is the built-in observer that accumulates one
// metrics.Phase per completed stage — the record Result.Phases and the
// parallel Summary gather. It is not safe for concurrent use; give every
// rank its own recorder.
type PhaseRecorder struct {
	phases []metrics.Phase
}

// NewPhaseRecorder returns an empty recorder.
func NewPhaseRecorder() *PhaseRecorder { return &PhaseRecorder{} }

func (r *PhaseRecorder) StageStart(string) {}

func (r *PhaseRecorder) StageEnd(stage string, m StageMetrics) {
	r.phases = append(r.phases, metrics.Phase{Name: stage, Elapsed: m.Wall, Counters: m.Counters})
}

// Phases returns the recorded per-stage records, in execution order.
func (r *PhaseRecorder) Phases() []metrics.Phase { return r.phases }

// Total returns the summed wall time of all recorded stages — the
// pipeline's elapsed time as read through the observer clock.
func (r *PhaseRecorder) Total() time.Duration {
	var total time.Duration
	for _, p := range r.phases {
		total += p.Elapsed
	}
	return total
}

// Package pipeline is the staged execution core shared by the serial TWGR
// router and the three parallel drivers. A routing run is a sequence of
// named Stages executed by a deterministic runner over a Session; the
// runner checks context cancellation at every stage boundary and feeds an
// Observer chain with per-stage measurements (wall time and stage-scoped
// counters).
//
// Observers are guaranteed side-effect-free with respect to routing
// output: a Session gives them no handle on circuit, grid, or RNG state,
// and the runner invokes them outside the stage bodies, so attaching or
// removing observers can never change a routing decision. The root
// conformance matrix (TestConformance) pins this property.
//
// Wall-clock reads are confined to this package (the "observer clock"):
// routing code asks the Session for measurements instead of calling
// time.Now itself, which is what lets internal/lint's nondeterminism
// rule keep its timing allowlist down to measurement infrastructure.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"parroute/internal/metrics"
)

// Stage is one named step of a routing pipeline.
type Stage interface {
	// Name returns the stage's canonical name; serial and parallel
	// pipelines use identical names for identical steps so per-stage
	// records are comparable across algorithms.
	Name() string
	// Run executes the stage. Long stages should poll ctx.Err() at
	// natural checkpoints; the runner itself checks cancellation between
	// stages.
	Run(ctx context.Context, s *Session) error
}

// funcStage adapts a closure to the Stage interface.
type funcStage struct {
	name string
	fn   func(ctx context.Context, s *Session) error
}

func (st funcStage) Name() string { return st.name }
func (st funcStage) Run(ctx context.Context, s *Session) error {
	return st.fn(ctx, s)
}

// Func wraps a closure as a Stage.
func Func(name string, fn func(ctx context.Context, s *Session) error) Stage {
	return funcStage{name: name, fn: fn}
}

// StageMetrics is what observers receive at StageEnd.
type StageMetrics struct {
	// Wall is the stage's wall-clock duration as read by the observer
	// clock.
	Wall time.Duration
	// Counters are the stage-scoped tallies reported through
	// Session.Count, in first-report order (deterministic). The slice is
	// the stage's own: observers may keep it but must not modify it.
	Counters []metrics.Counter
	// Err is the stage's error, nil on success. Observers see StageEnd
	// even for failed or cancelled stages so a timeline is never missing
	// its last entry.
	Err error
}

// Observer receives stage boundary events. Implementations must not
// mutate routing state (they are given none) and, when one observer
// instance is shared across parallel workers, must be safe for concurrent
// use.
type Observer interface {
	StageStart(stage string)
	StageEnd(stage string, m StageMetrics)
}

// Session carries the observer chain and stage-scoped counter state of
// one pipeline run. A Session belongs to a single run on a single
// goroutine (each parallel rank builds its own); the observers it fans
// out to may be shared.
type Session struct {
	observers []Observer
	counters  []metrics.Counter
	index     map[string]int
}

// NewSession builds a session that reports to the given observers in
// order.
func NewSession(obs ...Observer) *Session {
	return &Session{observers: obs, index: map[string]int{}}
}

// Count adds delta to the named counter of the currently running stage.
// Counters reset at every stage boundary; they surface in StageMetrics in
// first-report order.
func (s *Session) Count(name string, delta int64) {
	if i, ok := s.index[name]; ok {
		s.counters[i].Value += delta
		return
	}
	s.index[name] = len(s.counters)
	s.counters = append(s.counters, metrics.Counter{Name: name, Value: delta})
}

// takeCounters returns the stage's counters and resets the accumulator.
func (s *Session) takeCounters() []metrics.Counter {
	if len(s.counters) == 0 {
		return nil
	}
	out := s.counters
	s.counters = nil
	s.index = map[string]int{}
	return out
}

// Run executes the stages in order over the session. Before each stage it
// checks ctx; a cancelled or timed-out context stops the pipeline with an
// error wrapping ctx.Err() (context.Canceled or
// context.DeadlineExceeded). A stage error stops the pipeline and is
// returned wrapped with the stage name. Observers see StageStart/StageEnd
// around every stage that began, including the failing one.
func Run(ctx context.Context, s *Session, stages ...Stage) error {
	for _, st := range stages {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("pipeline: cancelled before stage %q: %w", st.Name(), err)
		}
		if err := runStage(ctx, s, st); err != nil {
			return err
		}
	}
	return nil
}

func runStage(ctx context.Context, s *Session, st Stage) error {
	name := st.Name()
	for _, o := range s.observers {
		o.StageStart(name)
	}
	start := time.Now()
	err := st.Run(ctx, s)
	m := StageMetrics{
		Wall:     time.Since(start),
		Counters: s.takeCounters(),
		Err:      err,
	}
	for _, o := range s.observers {
		o.StageEnd(name, m)
	}
	if err != nil {
		return fmt.Errorf("pipeline: stage %q: %w", name, err)
	}
	return nil
}

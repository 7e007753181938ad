package pipeline

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"parroute/internal/metrics"
)

// eventLog records the observer callback sequence.
type eventLog struct {
	events []string
	ends   []StageMetrics
}

func (l *eventLog) StageStart(stage string) { l.events = append(l.events, "start:"+stage) }
func (l *eventLog) StageEnd(stage string, m StageMetrics) {
	l.events = append(l.events, "end:"+stage)
	l.ends = append(l.ends, m)
}

func TestRunExecutesStagesInOrder(t *testing.T) {
	var order []string
	log := &eventLog{}
	s := NewSession(log)
	err := Run(context.Background(), s,
		Func("a", func(context.Context, *Session) error { order = append(order, "a"); return nil }),
		Func("b", func(context.Context, *Session) error { order = append(order, "b"); return nil }),
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := strings.Join(order, ","); got != "a,b" {
		t.Fatalf("stage order = %q, want a,b", got)
	}
	want := []string{"start:a", "end:a", "start:b", "end:b"}
	if got := strings.Join(log.events, " "); got != strings.Join(want, " ") {
		t.Fatalf("observer events = %q, want %q", got, strings.Join(want, " "))
	}
}

func TestRunStopsOnStageError(t *testing.T) {
	boom := errors.New("boom")
	log := &eventLog{}
	s := NewSession(log)
	ran := false
	err := Run(context.Background(), s,
		Func("fail", func(context.Context, *Session) error { return boom }),
		Func("next", func(context.Context, *Session) error { ran = true; return nil }),
	)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want wrap of %v", err, boom)
	}
	if !strings.Contains(err.Error(), `stage "fail"`) {
		t.Fatalf("error %q does not name the failing stage", err)
	}
	if ran {
		t.Fatal("stage after failure still ran")
	}
	// The failing stage must still produce a StageEnd carrying the error.
	if len(log.ends) != 1 || !errors.Is(log.ends[0].Err, boom) {
		t.Fatalf("StageEnd for failing stage: ends=%v", log.ends)
	}
}

func TestRunChecksContextBetweenStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSession()
	ran := false
	err := Run(ctx, s,
		Func("first", func(context.Context, *Session) error { cancel(); return nil }),
		Func("second", func(context.Context, *Session) error { ran = true; return nil }),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("stage ran after cancellation")
	}
	if !strings.Contains(err.Error(), `"second"`) {
		t.Fatalf("error %q does not name the stage it stopped before", err)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := Run(ctx, NewSession(), Func("never", func(context.Context, *Session) error {
		t.Fatal("stage ran under expired deadline")
		return nil
	}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run error = %v, want context.DeadlineExceeded", err)
	}
}

func TestCountersAreStageScopedAndOrdered(t *testing.T) {
	log := &eventLog{}
	s := NewSession(log)
	err := Run(context.Background(), s,
		Func("a", func(_ context.Context, s *Session) error {
			s.Count("z", 1)
			s.Count("a", 2)
			s.Count("z", 3) // accumulate, keep first-report position
			return nil
		}),
		Func("b", func(_ context.Context, s *Session) error {
			s.Count("only-b", 7)
			return nil
		}),
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantA := []metrics.Counter{{Name: "z", Value: 4}, {Name: "a", Value: 2}}
	if got := log.ends[0].Counters; len(got) != 2 || got[0] != wantA[0] || got[1] != wantA[1] {
		t.Fatalf("stage a counters = %v, want %v", got, wantA)
	}
	if got := log.ends[1].Counters; len(got) != 1 || got[0] != (metrics.Counter{Name: "only-b", Value: 7}) {
		t.Fatalf("stage b counters = %v (counters leaked across stages?)", got)
	}
}

func TestPhaseRecorder(t *testing.T) {
	rec := NewPhaseRecorder()
	rec.StageEnd("steiner", StageMetrics{Wall: 2 * time.Millisecond, Counters: []metrics.Counter{{Name: "nets", Value: 5}}})
	rec.StageEnd("coarse", StageMetrics{Wall: 3 * time.Millisecond})
	ph := rec.Phases()
	if len(ph) != 2 || ph[0].Name != "steiner" || ph[1].Name != "coarse" {
		t.Fatalf("phases = %v", ph)
	}
	if len(ph[0].Counters) != 1 || ph[0].Counters[0] != (metrics.Counter{Name: "nets", Value: 5}) {
		t.Fatalf("phase counters = %v", ph[0].Counters)
	}
	if rec.Total() != 5*time.Millisecond {
		t.Fatalf("Total = %v, want 5ms", rec.Total())
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace(&metrics.Result{Circuit: "primary1", Algo: "rowwise", Procs: 4, Phases: []metrics.Phase{
		{Name: "steiner", Elapsed: time.Millisecond, Counters: []metrics.Counter{{Name: "trees", Value: 12}}},
		{Name: "connect", Elapsed: 2 * time.Millisecond},
	}})

	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if back.Schema != TraceSchema {
		t.Fatalf("schema = %q", back.Schema)
	}
	if back.Circuit != "primary1" || back.Algo != "rowwise" || back.Procs != 4 {
		t.Fatalf("identity fields lost: %+v", back)
	}
	if !reflect.DeepEqual(back.Stages, tr.Stages) {
		t.Fatalf("stages = %+v, want %+v", back.Stages, tr.Stages)
	}
}

func TestReadTraceRejectsUnknownSchema(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader(`{"schema":"parroute-trace/999","stages":[]}`)); err == nil {
		t.Fatal("ReadTrace accepted unknown schema")
	}
}

package main

import (
	"sort"
	"sync"
	"time"

	"parroute/internal/pipeline"
)

// span is one timed interval of a traced op, recorded from the benchmark's
// side of a layer boundary. Spans of one op share Op; Parent is the ID of
// the span that caused this one (0 for an op's root span). Times are
// nanoseconds since the tracer was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"startNs"`
	EndNS   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: parallel ranks and twgrd clients record into one tracer.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now()} }

// begin opens a span now and returns its ID; end closes it.
func (t *tracer) begin(parent, op int, name string) int {
	return t.add(parent, op, name, now(), time.Time{})
}

func (t *tracer) end(id int) {
	e := now()
	t.mu.Lock()
	t.spans[id-1].EndNS = int64(e.Sub(t.t0))
	t.mu.Unlock()
}

// add records a span whose bounds are already known.
func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNS: int64(start.Sub(t.t0))}
	if !end.IsZero() {
		s.EndNS = int64(end.Sub(t.t0))
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// stageObserver turns pipeline stage events into child spans of one op.
// The drivers share one observer across ranks and StageEnd carries no rank,
// so a span is recorded when its stage ends, reaching back by the wall time
// the pipeline measured.
type stageObserver struct {
	tr     *tracer
	parent int
	op     int
	layer  string
}

func (o *stageObserver) StageStart(string) {}

func (o *stageObserver) StageEnd(stage string, m pipeline.StageMetrics) {
	end := now()
	o.tr.add(o.parent, o.op, o.layer+"."+stage, end.Add(-m.Wall), end)
}

// selfTime is one row of the per-layer span table.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"totalMs"`
	SelfMS  float64 `json:"selfMs"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it that its child spans cover (children of parallel
// ranks overlap, so the cover is the union of their intervals).
func selfTimes(spans []span) []selfTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	var names []string
	for _, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &selfTime{Name: s.Name}
			byName[s.Name] = row
			names = append(names, s.Name)
		}
		row.Count++
		row.TotalMS += float64(s.EndNS-s.StartNS) / 1e6
		row.SelfMS += float64(s.EndNS-s.StartNS-covered(s, children[s.ID])) / 1e6
	}
	sort.Strings(names)
	out := make([]selfTime, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// covered returns how many nanoseconds of parent the kids' union covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].StartNS != kids[j].StartNS {
			return kids[i].StartNS < kids[j].StartNS
		}
		return kids[i].ID < kids[j].ID
	})
	var total int64
	at := parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, at), min(k.EndNS, parent.EndNS)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

package service

import (
	"context"
	"fmt"
	"sync"

	"parroute/internal/pipeline"
)

// job is one admitted computation: the singleflight unit every
// identical-key Submit coalesces onto. Lifecycle: queued (cancel nil) →
// running (cancel set by begin) → done (done closed by complete).
// Waiter accounting runs alongside: each Submit adds one waiter, each
// Ticket release drops one, and the last departure cancels the
// computation — routing for nobody is wasted work.
type job struct {
	res      resolved
	priority int
	seq      uint64
	done     chan struct{}

	mu       sync.Mutex
	waiters  int
	began    bool
	finished bool
	cancel   context.CancelFunc // non-nil only while running
	subs     []chan Progress

	// Outcome, valid after done closes.
	result *JobResult
	err    error
}

func (j *job) addWaiter() {
	j.mu.Lock()
	j.waiters++
	j.mu.Unlock()
}

// dropWaiter removes one unit of waiter interest; the last drop cancels
// a running job and abandons a queued one (begin will refuse it).
func (j *job) dropWaiter() {
	j.mu.Lock()
	j.waiters--
	cancel := j.cancel
	last := j.waiters <= 0 && !j.finished
	j.mu.Unlock()
	if last && cancel != nil {
		cancel()
	}
}

// begin moves the job to running, publishing its cancel hook. It reports
// false when every waiter is already gone, in which case the job must be
// finished as cancelled instead of run.
func (j *job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.waiters <= 0 {
		return false
	}
	j.began = true
	j.cancel = cancel
	return true
}

// complete records the outcome and wakes every waiter. Exactly one call
// per job (the worker or the admission path that abandoned it).
func (j *job) complete(result *JobResult, err error) {
	j.mu.Lock()
	j.finished = true
	j.cancel = nil
	j.result = result
	j.err = err
	j.subs = nil
	j.mu.Unlock()
	close(j.done)
}

// subscribe registers a progress listener; the returned func removes it.
// A nil channel is returned after completion (there is nothing left to
// stream).
func (j *job) subscribe(buf int) (<-chan Progress, func()) {
	ch := make(chan Progress, buf)
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
	}
}

// publish fans one progress event out to the subscribers, dropping when
// a buffer is full: progress is advisory, the result is what matters.
// Returns (delivered, dropped).
func (j *job) publish(ev Progress) (int64, int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var delivered, dropped int64
	for _, ch := range j.subs {
		select {
		case ch <- ev:
			delivered++
		default:
			dropped++
		}
	}
	return delivered, dropped
}

// jobObserver adapts the pipeline Observer chain onto the job's progress
// stream. One instance is shared by every rank of a parallel run, so it
// must be (and is) safe for concurrent use.
type jobObserver struct {
	srv *Server
	job *job
}

func (o *jobObserver) StageStart(stage string) {
	o.emit(Progress{Key: o.job.res.key, Stage: stage, Event: "start"})
}

func (o *jobObserver) StageEnd(stage string, m pipeline.StageMetrics) {
	ev := Progress{Key: o.job.res.key, Stage: stage, Event: "end", WallNS: m.Wall.Nanoseconds()}
	if m.Err != nil {
		ev.Error = m.Err.Error()
	}
	o.emit(ev)
}

func (o *jobObserver) emit(ev Progress) {
	delivered, dropped := o.job.publish(ev)
	o.srv.stats.progressDelivered.Add(delivered)
	o.srv.stats.progressDropped.Add(dropped)
}

// closedDone and closedProgress are what every cache-hit ticket hands out.
var (
	closedDone     = func() chan struct{} { ch := make(chan struct{}); close(ch); return ch }()
	closedProgress = func() chan Progress { ch := make(chan Progress); close(ch); return ch }()
)

// Ticket is one submitter's handle on a job. Wait blocks for the
// outcome; Release abandons interest early (client disconnect). A
// cache-hit ticket carries its result immediately.
type Ticket struct {
	srv *Server
	job *job
	hit *JobResult

	releaseOnce sync.Once
}

// CacheHit reports whether the ticket was served from the result cache
// without touching the queue.
func (t *Ticket) CacheHit() bool { return t.hit != nil }

// Done returns a channel that closes when the job's outcome is
// available. Cache hits return a closed channel.
func (t *Ticket) Done() <-chan struct{} {
	if t.hit != nil {
		return closedDone
	}
	return t.job.done
}

// Wait blocks until the job finishes or ctx ends. When ctx ends first
// the ticket's interest is released — if this was the job's last waiter,
// the computation itself is cancelled — and the returned error wraps
// ctx's cause (context.Canceled for a client disconnect).
func (t *Ticket) Wait(ctx context.Context) (*JobResult, error) {
	if t.hit != nil {
		return t.hit, nil
	}
	select {
	case <-t.job.done:
		t.Release()
		if t.job.err != nil {
			return nil, t.job.err
		}
		return t.job.result, nil
	case <-ctx.Done():
		t.Release()
		return nil, fmt.Errorf("service: waiter left before job %s finished: %w", t.job.res.key, context.Cause(ctx))
	}
}

// Release drops this ticket's waiter interest. Idempotent; Wait calls it
// on every path, so explicit calls are only needed when a ticket is
// abandoned without waiting.
func (t *Ticket) Release() {
	if t.job == nil {
		return
	}
	t.releaseOnce.Do(t.job.dropWaiter)
}

// Subscribe attaches a progress listener to the job (buffered with
// progressBuffer events). The returned cancel func detaches it.
// Cache-hit tickets return an already-closed channel.
func (t *Ticket) Subscribe() (<-chan Progress, func()) {
	if t.hit != nil {
		return closedProgress, func() {}
	}
	return t.job.subscribe(progressBuffer)
}

// Package mp is the message-passing substrate that replaces MPI in this
// reproduction. The parallel routing algorithms are written once against
// the Comm interface (rank/size, tagged point-to-point messages, barrier,
// plus the typed collectives in collectives.go: Gather[T], Allgather[T] and
// Alltoall[T] fail on a peer's value that is not a T, naming tag and rank)
// and run on four interchangeable engines:
//
//   - Virtual: a deterministic discrete-event simulation of a P-processor
//     message-passing machine. Worker goroutines run one at a time (token
//     passing), their compute spans are measured on the host CPU, and
//     communication advances per-worker virtual clocks through a platform
//     cost model. This is how the paper's SparcCenter-1000 (SMP) and Intel
//     Paragon (DMP) runs are reproduced on a machine with any core count;
//     the simulated elapsed time is the parallel runtime reported by the
//     benchmarks.
//   - Inproc: real concurrent goroutines with in-memory mailboxes, for
//     hosts with real cores.
//   - TCP: one goroutine per rank, all traffic framed over loopback TCP
//     sockets with the parroute-mpwire/1 codecs (the one wire format: a
//     payload type without a codec fails its Send) — the "distributed
//     memory" deployment shape.
//   - TCP with Config.Net set: the same transport across OS processes,
//     each running one rank of a mesh that forms through a rank-zero
//     rendezvous (see NetConfig).
//
// The last three are one real-time machine (machine.go) that differs only
// in which ranks live in this process and which rank pairs have a socket;
// Virtual is a scheduler of its own, because there blocking is the
// hand-off of the one execution token.
//
// Ownership discipline: a sent value belongs to the receiver afterwards.
// Senders must not retain or mutate payloads after Send; the in-memory
// engines deliver by reference.
package mp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Comm is the per-rank communicator handed to each worker function.
type Comm interface {
	// Rank returns this worker's index in [0, Size).
	Rank() int
	// Size returns the number of workers.
	Size() int
	// Send delivers v to rank `to` under the given tag. It does not block
	// on the receiver (buffered semantics).
	Send(to, tag int, v any) error
	// Recv blocks until a message from rank `from` with the given tag
	// arrives and returns its payload. Messages from the same sender and
	// tag arrive in send order.
	Recv(from, tag int) (any, error)
	// Barrier blocks until every rank has entered the barrier.
	Barrier() error
}

// Reserved engine tags. The negative tag space belongs to the engines:
// user code must send and receive on tags >= 0, and the tag-discipline
// analyzer reports user tag constants that stray into the reserved range.
const (
	// tagBarrier carries the gather/release tokens of Comm.Barrier on every
	// real-time engine (Virtual's barrier is a scheduler state, not traffic).
	tagBarrier = -2
	// tagShutdown carries the two-phase termination tokens of a machine
	// that spans processes (see machine.go), kept off tagBarrier so
	// shutdown traffic can never interleave with a user-level barrier.
	tagShutdown = -3
)

// Mode selects the execution engine.
type Mode int

const (
	// Virtual is the discrete-event simulated machine (default).
	Virtual Mode = iota
	// Inproc runs workers as truly concurrent goroutines.
	Inproc
	// TCP runs workers as goroutines that communicate over loopback TCP
	// with framed parroute-mpwire/1 encoding (or one worker per process
	// when Config.Net is set).
	TCP
)

func (m Mode) String() string {
	switch m {
	case Virtual:
		return "virtual"
	case Inproc:
		return "inproc"
	case TCP:
		return "tcp"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config describes a parallel run.
type Config struct {
	Procs int
	Mode  Mode
	// Model is the communication cost model used by the Virtual engine;
	// ignored by the others. Zero value means SMP().
	Model CostModel
	// Limits bounds how long the real-time engines (Inproc, TCP) wait on
	// a single message. Ignored by Virtual, whose deterministic deadlock
	// detector subsumes per-message deadlines.
	Limits Limits
	// Chaos, when non-nil, wraps the selected engine in a deterministic
	// fault injector driven by the plan (see Chaos).
	Chaos *Plan
	// Net, when non-nil, places this process at one rank of a
	// multi-process TCP mesh formed through a rank-zero rendezvous (see
	// NetConfig). Requires Mode == TCP; Procs must equal Net.Ranks. The
	// engine then runs the worker function exactly once, at Net.Rank.
	Net *NetConfig
}

// Limits bounds single-message waits on the real-time engines.
type Limits struct {
	// RecvTimeout is the longest a Recv (including the engine-internal
	// barrier traffic) waits for a matching message before failing with
	// ErrDeadline. Zero means wait forever.
	RecvTimeout time.Duration
	// SendTimeout is the longest a TCP Send may spend writing to the
	// socket before failing with ErrDeadline. Zero means no limit. The
	// in-memory engines never block in Send.
	SendTimeout time.Duration
	// Counters, when non-nil, receives deadline-miss counts. Config.Run
	// points it at the chaos counter set automatically when Chaos is on.
	Counters *FaultCounters
}

// handshakeTimeout bounds each connection-setup hello read or write on
// the TCP engines (loopback mesh and rendezvous), so a peer that connects
// and then goes silent fails the setup instead of parking an accept
// goroutine forever.
const handshakeTimeout = 10 * time.Second

// ErrDeadlock is returned when every worker is blocked and no message can
// ever arrive.
var ErrDeadlock = errors.New("mp: deadlock: all workers blocked")

// ErrDeadline is wrapped by errors from sends and receives that exceeded
// their configured deadline or exhausted their retry budget.
var ErrDeadline = errors.New("mp: deadline exceeded")

// ErrRankLost is wrapped by errors caused by a rank dying mid-run: its
// connections dropping on the TCP engine, or a chaos plan crashing it.
// Surviving ranks see it from any blocked or subsequent operation, so a
// caller can detect the loss with errors.Is and degrade gracefully.
var ErrRankLost = errors.New("mp: rank lost")

// Engine runs a worker function on P ranks. The four built-in engines —
// Virtual's scheduler, and the one real-time machine as Inproc, loopback
// TCP or one rank of a multi-process mesh — are selected by Config.Mode
// and Config.Net; Config.Chaos wraps any of them in a ChaosEngine with
// deterministic fault injection.
type Engine interface {
	// Run executes fn on procs workers and returns the elapsed parallel
	// time: simulated time under Virtual, wall-clock time otherwise. The
	// first worker error aborts the run and is returned. Cancelling ctx
	// aborts the run the same way a worker failure does — every blocked
	// rank is released and the returned error wraps ctx.Err()
	// (context.Canceled or context.DeadlineExceeded); no goroutines are
	// leaked. A blocked TCP socket write is additionally bounded by
	// Limits.SendTimeout.
	Run(ctx context.Context, procs int, fn func(Comm) error) (time.Duration, error)
}

// cancelCause wraps a cancelled context's error so every rank's abort
// error carries the mp prefix while errors.Is still sees the cause.
func cancelCause(ctx context.Context) error {
	return fmt.Errorf("mp: run cancelled: %w", ctx.Err())
}

type virtualEngine struct{ model CostModel }

func (e virtualEngine) Run(ctx context.Context, procs int, fn func(Comm) error) (time.Duration, error) {
	return runVirtual(ctx, procs, e.model, fn)
}

// realTime is the engine of the three real-time modes: the function builds
// the machine — which ranks are local, which pairs have sockets — and the
// machine runs fn (machine.go). Mesh set-up counts toward the elapsed time.
type realTime func(ctx context.Context, procs int) (*machine, error)

func (build realTime) Run(ctx context.Context, procs int, fn func(Comm) error) (time.Duration, error) {
	start := time.Now() //lint:allow nondeterminism elapsed-time measurement, never a routing decision
	m, err := build(ctx, procs)
	if err == nil {
		err = m.run(ctx, fn)
	}
	return time.Since(start), err //lint:allow nondeterminism elapsed-time measurement, never a routing decision
}

// baseEngine builds the transport selected by Mode, without chaos.
func (cfg Config) baseEngine() (Engine, error) {
	if cfg.Net != nil && cfg.Mode != TCP {
		return nil, fmt.Errorf("mp: Net requires Mode TCP, got %v", cfg.Mode)
	}
	switch cfg.Mode {
	case Virtual:
		model := cfg.Model
		if model.Name == "" {
			model = SMP()
		}
		return virtualEngine{model: model}, nil
	case Inproc:
		return realTime(func(_ context.Context, n int) (*machine, error) {
			return newMachine(n, cfg.Limits, everyRank), nil
		}), nil
	case TCP:
		if nc := cfg.Net; nc != nil {
			return realTime(func(ctx context.Context, n int) (*machine, error) {
				return rendezvousMesh(ctx, n, *nc, cfg.Limits)
			}), nil
		}
		return realTime(func(_ context.Context, n int) (*machine, error) {
			return loopbackMesh(n, cfg.Limits)
		}), nil
	default:
		return nil, fmt.Errorf("mp: unknown mode %v", cfg.Mode)
	}
}

// Engine returns the engine the config selects: one of the built-in
// transports, wrapped in a ChaosEngine fault injector when cfg.Chaos is set.
// Returning the *ChaosEngine (rather than running it blindly) lets the
// caller read fault counters and the event log after the run.
func (cfg Config) Engine() (Engine, error) {
	if cfg.Chaos == nil {
		return cfg.baseEngine()
	}
	ce := &ChaosEngine{plan: *cfg.Chaos}
	if cfg.Limits.Counters == nil {
		// Deadline misses inside the transport count as chaos faults.
		cfg.Limits.Counters = &ce.counters
	}
	base, err := cfg.baseEngine()
	if err != nil {
		return nil, err
	}
	ce.inner = base
	return ce, nil
}

// Run executes fn on Procs workers and returns the elapsed parallel time:
// simulated time under Virtual, wall-clock time otherwise. The first
// worker error aborts the run and is returned. Run never cancels; use
// RunContext for cancellable or deadline-bounded runs.
func (cfg Config) Run(fn func(Comm) error) (time.Duration, error) {
	return cfg.RunContext(context.Background(), fn)
}

// RunContext is Run under a context: cancelling ctx aborts the run on
// every rank with an error wrapping ctx.Err(), leaking no goroutines.
func (cfg Config) RunContext(ctx context.Context, fn func(Comm) error) (time.Duration, error) {
	if cfg.Procs <= 0 {
		return 0, fmt.Errorf("mp: Procs must be positive, got %d", cfg.Procs)
	}
	eng, err := cfg.Engine()
	if err != nil {
		return 0, err
	}
	return eng.Run(ctx, cfg.Procs, fn)
}

// envelope is an in-flight message.
type envelope struct {
	src, tag int
	v        any
	// avail is the virtual time at which the message is available to the
	// receiver (Virtual engine only).
	avail time.Duration
}

// takeEnv removes and returns the first queued envelope from (src, tag).
// First-match preserves per-sender-per-tag FIFO order.
func takeEnv(queue *[]envelope, src, tag int) (envelope, bool) {
	for i, env := range *queue {
		if env.src == src && env.tag == tag {
			*queue = slices.Delete(*queue, i, i+1)
			return env, true
		}
	}
	return envelope{}, false
}

// firstErr keeps the first of a set of errors, preferring earlier ranks
// for determinism.
func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

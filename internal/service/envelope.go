// Package service is the twgrd routing daemon: a long-running HTTP/JSON
// front end over the parallel routing pipeline. It accepts routing jobs
// (a circuit preset or inline spec plus algorithm, worker count, seed and
// net partition), admits them through a bounded priority queue onto a
// fixed worker pool, streams per-stage progress by adapting the pipeline
// Observer chain onto server-sent events, and caches results keyed by
// circuit|algo|procs|seed|netpart — deterministic routing makes a cache
// hit byte-identical to a fresh computation, which the test tier asserts.
//
// The wire format is a versioned envelope (proto "twgrd/1") carrying a
// typed JSON body and a checksum; see Envelope. Overload surfaces as
// HTTP backpressure (429 when the queue is full, 503 while draining),
// never as a dropped job: every admitted job completes, fails, or is
// cancelled, and the tallies in Stats account for all of them.
package service

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
)

// Proto is the wire-format version every envelope carries. A reader
// rejects any other value, so incompatible changes must bump it.
const Proto = "twgrd/1"

// Envelope kinds: one per request/response type that crosses the wire.
const (
	KindJob      = "job.submit"   // body: JobSpec
	KindResult   = "job.result"   // body: JobResult
	KindProgress = "job.progress" // body: Progress (SSE stream only)
	KindStats    = "stats"        // body: Stats
	KindError    = "error"        // body: WireError
)

// Envelope is the versioned frame every message travels in. Sum is the
// FNV-1a checksum of Proto, Kind and Body, so a truncated or spliced
// payload fails Verify before anything decodes its body.
type Envelope struct {
	Proto string          `json:"proto"`
	Kind  string          `json:"kind"`
	Body  json.RawMessage `json:"body"`
	Sum   string          `json:"sum"`
}

// checksum is the envelope integrity hash: FNV-1a over proto, kind and the
// body's pieces, with NUL separators (so "a"+"bc" and "ab"+"c" differ).
func checksum(proto, kind string, body ...[]byte) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(proto + "\x00" + kind + "\x00")) // fnv's Write cannot fail
	for _, b := range body {
		_, _ = h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// frame returns the envelope bytes before and after a body made of the
// given pieces, {"proto":…,"kind":…,"body": and ,"sum":"…"} and a newline.
// The pieces must join into compact JSON as json.Marshal writes it.
func frame(kind string, body ...[]byte) (head, tail []byte) {
	k, _ := json.Marshal(kind) // a string always marshals
	head = append(append([]byte(`{"proto":"`+Proto+`","kind":`), k...), `,"body":`...)
	return head, []byte(`,"sum":"` + checksum(Proto, kind, body...) + "\"}\n")
}

// pieces returns kind's envelope of body as head, body and tail, the tail
// ending in a newline. Any body is marshalled once, except a JobResult:
// its own bytes are framed around Metrics by hand, in json.Marshal's field
// order and form, so the metrics are neither marshalled nor copied.
func pieces(kind string, body any) (head, mid, tail []byte, err error) {
	if v, ok := body.(JobResult); ok {
		body = &v
	}
	res, ok := body.(*JobResult)
	if !ok {
		if mid, err = json.Marshal(body); err != nil {
			return nil, nil, nil, fmt.Errorf("service: encoding %s body: %w", kind, err)
		}
		head, tail = frame(kind, mid)
		return head, mid, tail, nil
	}
	key, _ := json.Marshal(res.Key) // a string always marshals
	open := append([]byte(`{"key":`), key...)
	if res.CacheHit {
		open = append(open, `,"cacheHit":true`...)
	}
	open = append(open, `,"metrics":`...)
	head, tail = frame(kind, open, res.Metrics, []byte("}"))
	return append(head, open...), res.Metrics, append([]byte("}"), tail...), nil
}

// Encode wraps a typed body in a checksummed envelope and serializes it.
func Encode(kind string, body any) ([]byte, error) {
	head, mid, tail, err := pieces(kind, body)
	if err != nil {
		return nil, err
	}
	return slices.Concat(head, mid, tail[:len(tail)-1]), nil
}

// Decode parses and verifies an envelope. It rejects malformed JSON,
// version skew (a proto other than Proto), unknown kinds, and checksum
// mismatches — each with a distinct error so clients can tell a stale
// peer from a corrupt payload.
func Decode(data []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("service: malformed envelope: %w", err)
	}
	if env.Proto != Proto {
		return nil, fmt.Errorf("service: version skew: envelope speaks %q, this daemon speaks %q", env.Proto, Proto)
	}
	switch env.Kind {
	case KindJob, KindResult, KindProgress, KindStats, KindError:
	default:
		return nil, fmt.Errorf("service: unknown envelope kind %q", env.Kind)
	}
	if err := env.Verify(); err != nil {
		return nil, err
	}
	return &env, nil
}

// Verify recomputes the checksum over the envelope's fields.
func (e *Envelope) Verify() error {
	if want := checksum(e.Proto, e.Kind, e.Body); e.Sum != want {
		return fmt.Errorf("service: envelope checksum mismatch: have %s, computed %s", e.Sum, want)
	}
	return nil
}

// DecodeBody unmarshals the envelope body into a typed value, checking
// the kind first so a job.result body never decodes into a JobSpec.
func (e *Envelope) DecodeBody(kind string, v any) error {
	if e.Kind != kind {
		return fmt.Errorf("service: envelope is %q, want %q", e.Kind, kind)
	}
	if err := json.Unmarshal(e.Body, v); err != nil {
		return fmt.Errorf("service: decoding %s body: %w", kind, err)
	}
	return nil
}

// JobSpec describes one routing job. Preset and CircuitJSON select the
// circuit (exactly one must be set); the remaining fields mirror the
// shared runcfg.Run knobs, with zero values meaning the daemon's
// configured defaults.
type JobSpec struct {
	// Preset names a benchmark circuit ("primary2", …, plus the
	// test-scale "small" and "tiny").
	Preset string `json:"preset,omitempty"`
	// CircuitJSON is an inline gensc circuit, for jobs routing a design
	// the daemon has never seen.
	CircuitJSON json.RawMessage `json:"circuit,omitempty"`
	// GenSeed is the preset generation seed (default: the daemon's).
	GenSeed uint64 `json:"genSeed,omitempty"`

	Algo     string `json:"algo,omitempty"`     // serial | rowwise | netwise | hybrid
	Procs    int    `json:"procs,omitempty"`    // default 1
	Seed     uint64 `json:"seed,omitempty"`     // routing seed, default 1
	Engine   string `json:"engine,omitempty"`   // virtual | inproc | tcp
	Platform string `json:"platform,omitempty"` // smp | dmp
	NetPart  string `json:"netpart,omitempty"`  // center | locus | density | pinweight

	// Priority orders the admission queue: higher runs sooner; equal
	// priorities run in submission order.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the job's routing time (0: the daemon's default).
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

// JobResult is the deterministic outcome of a job. Metrics holds the
// canonical result JSON (wall-clock fields zeroed — see
// CanonicalResult), so two runs of the same job produce byte-identical
// bodies and a cache hit is indistinguishable from a fresh computation
// except for the CacheHit flag.
type JobResult struct {
	// Key is the cache identity the job resolved to:
	// circuit|algo|procs|seed|netpart.
	Key string `json:"key"`
	// CacheHit marks a result served from the cache.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Metrics is the canonical metrics.Result JSON. It must be compact
	// JSON as CanonicalResult writes it: the daemon frames these bytes
	// onto the wire as they are, without re-validating them.
	Metrics json.RawMessage `json:"metrics"`
}

// Progress is one pipeline stage-boundary event, streamed over SSE while
// a job runs. WallNS is only set on "end" events and is a measurement,
// not part of the deterministic result.
type Progress struct {
	Key   string `json:"key"`
	Stage string `json:"stage"`
	Event string `json:"event"` // "start" | "end"
	// WallNS is the stage wall time on "end" events; parallel jobs
	// interleave events from all ranks on one stream.
	WallNS int64  `json:"wallNs,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Stats is the daemon's counter snapshot.
type Stats struct {
	Submitted         int64 `json:"submitted"`
	Completed         int64 `json:"completed"`
	Failed            int64 `json:"failed"`
	Cancelled         int64 `json:"cancelled"`
	CacheHits         int64 `json:"cacheHits"`
	CacheMisses       int64 `json:"cacheMisses"`
	Coalesced         int64 `json:"coalesced"` // joined an identical in-flight job
	RejectedOverload  int64 `json:"rejectedOverload"`
	RejectedDraining  int64 `json:"rejectedDraining"`
	RejectedInvalid   int64 `json:"rejectedInvalid"`
	QueueDepth        int64 `json:"queueDepth"`
	Running           int64 `json:"running"`
	CacheEntries      int64 `json:"cacheEntries"`
	CacheEvictions    int64 `json:"cacheEvictions"`
	ProgressDelivered int64 `json:"progressDelivered"`
	ProgressDropped   int64 `json:"progressDropped"`
}

// WireError is the error body of a rejected or failed request.
type WireError struct {
	Code    string `json:"code"` // "overloaded" | "draining" | "invalid" | "cancelled" | "internal"
	Message string `json:"message"`
}

// Error codes carried by WireError.
const (
	CodeOverloaded = "overloaded"
	CodeDraining   = "draining"
	CodeInvalid    = "invalid"
	CodeCancelled  = "cancelled"
	CodeInternal   = "internal"
)

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
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
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

	// result is the job.result body Decode read by position from read,
	// which DecodeBody uses while Body is still that slice.
	result *JobResult
	read   []byte
}

// kinds are the envelope kinds a reader accepts.
var kinds = []string{KindJob, KindResult, KindProgress, KindStats, KindError}

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
// peer from a corrupt payload. An envelope in the form frame writes is
// read by readFrame, and its Body is a subslice of data, not a copy: data
// must not change while the envelope is in use.
func Decode(data []byte) (*Envelope, error) {
	env := readFrame(data)
	if env == nil {
		env = new(Envelope)
		if err := json.Unmarshal(data, env); err != nil {
			return nil, fmt.Errorf("service: malformed envelope: %w", err)
		}
		if env.Proto != Proto {
			return nil, fmt.Errorf("service: version skew: envelope speaks %q, this daemon speaks %q", env.Proto, Proto)
		}
		if !slices.Contains(kinds, env.Kind) {
			return nil, fmt.Errorf("service: unknown envelope kind %q", env.Kind)
		}
	}
	if err := env.Verify(); err != nil {
		return nil, err
	}
	return env, nil
}

// readFrame reads data in the form frame writes, then only whitespace:
// {"proto":"twgrd/1","kind":"<known kind>","body":<value>,"sum":"<16 hex>"}.
// One json.Valid pass checks the body, or a job.result's metrics alone.
// Any other form, or a body that is not one JSON value json.Unmarshal
// would read there, returns nil: json.Unmarshal reads it instead.
func readFrame(data []byte) *Envelope {
	rest, ok := bytes.CutPrefix(bytes.TrimRight(data, " \t\r\n"), []byte(`{"proto":"`+Proto+`","kind":"`))
	if !ok {
		return nil
	}
	kind, rest, _ := bytes.Cut(rest, []byte(`","body":`))
	i := slices.IndexFunc(kinds, func(k string) bool { return string(kind) == k })
	n := len(rest) - len(`,"sum":"0123456789abcdef"}`)
	if i < 0 || n < 0 || !bytes.HasPrefix(rest[n:], []byte(`,"sum":"`)) || !bytes.HasSuffix(rest, []byte(`"}`)) {
		return nil
	}
	env := &Envelope{Proto: Proto, Kind: kinds[i], Body: rest[:n], Sum: string(rest[len(rest)-18 : len(rest)-2])}
	if strings.Trim(env.Sum, "0123456789abcdef") != "" || deeper(env.Body, maxDepth-1) {
		return nil
	}
	if env.Kind == KindResult {
		if env.result = readResult(env.Body); env.result != nil {
			env.read = env.Body
			return env
		}
	}
	if !oneValue(env.Body) {
		return nil
	}
	return env
}

// readResult reads a job.result body in the form pieces writes,
// {"key":<string>,"metrics":<value>} with ,"cacheHit":true after the key
// on a hit. The key token, up to the first `","` (a key it cuts short is
// not a valid token), is decoded on its own. Any other form returns nil.
func readResult(body []byte) *JobResult {
	rest, ok := bytes.CutPrefix(body, []byte(`{"key":"`))
	i := bytes.Index(rest, []byte(`","`))
	res := new(JobResult)
	if !ok || i < 0 || json.Unmarshal(body[len(`{"key":`):len(`{"key":"`)+i+1], &res.Key) != nil {
		return nil
	}
	rest, res.CacheHit = bytes.CutPrefix(rest[i+1:], []byte(`,"cacheHit":true`))
	m, ok := bytes.CutPrefix(rest, []byte(`,"metrics":`))
	m, closed := bytes.CutSuffix(m, []byte("}"))
	if !ok || !closed || !oneValue(m) {
		return nil
	}
	res.Metrics = m
	return res
}

// maxDepth is how deep json.Unmarshal reads arrays and objects, counted
// from the envelope: a body json.Valid accepts can be a level too deep.
const maxDepth = 10000

// deeper reports whether the JSON value b nests more than max arrays and
// objects.
func deeper(b []byte, max int) bool {
	if bytes.Count(b, []byte("{"))+bytes.Count(b, []byte("[")) <= max {
		return false // too few to nest that deep: skip the byte-by-byte scan
	}
	depth, quoted := 0, false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case quoted && c == '\\':
			i++
		case c == '"':
			quoted = !quoted
		case quoted:
		case c == '{' || c == '[':
			if depth++; depth > max {
				return true
			}
		case c == '}' || c == ']':
			depth--
		}
	}
	return false
}

// oneValue reports whether b is one JSON value with no whitespace around
// it, which a json.RawMessage field would drop.
func oneValue(b []byte) bool {
	return len(b) > 0 && len(bytes.TrimSpace(b)) == len(b) && json.Valid(b)
}

// Verify recomputes the checksum over the envelope's fields.
func (e *Envelope) Verify() error {
	if want := checksum(e.Proto, e.Kind, e.Body); e.Sum != want {
		return fmt.Errorf("service: envelope checksum mismatch: have %s, computed %s", e.Sum, want)
	}
	return nil
}

// DecodeBody unmarshals the envelope body into a typed value, checking
// the kind first so a job.result body never decodes into a JobSpec. A
// *JobResult whose body Decode read by position takes what Decode read:
// its Metrics is a subslice of Decode's input, not a copy.
func (e *Envelope) DecodeBody(kind string, v any) error {
	if e.Kind != kind {
		return fmt.Errorf("service: envelope is %q, want %q", e.Kind, kind)
	}
	if r, ok := v.(*JobResult); ok && r != nil && e.result != nil && len(e.Body) == len(e.read) && &e.Body[0] == &e.read[0] {
		r.Key, r.Metrics = e.result.Key, e.result.Metrics
		r.CacheHit = r.CacheHit || e.result.CacheHit
		return nil
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

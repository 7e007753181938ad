package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"parroute/internal/metrics"
)

// TestEnvelopeRoundTrip encodes and decodes a representative body for
// every envelope kind and checks the payload survives unchanged.
func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []struct {
		kind string
		body any
		into func() any
	}{
		{KindJob, JobSpec{Preset: "tiny", Algo: "hybrid", Procs: 4, Seed: 9, Priority: 2, TimeoutMS: 1500}, func() any { return &JobSpec{} }},
		{KindJob, JobSpec{CircuitJSON: json.RawMessage(`{"rows":2}`), Algo: "serial", Procs: 1, Seed: 1}, func() any { return &JobSpec{} }},
		{KindResult, JobResult{Key: "preset:tiny@7|serial|p1|s1|pinweight", CacheHit: true, Metrics: json.RawMessage(`{"final":{"len":12}}`)}, func() any { return &JobResult{} }},
		{KindResult, JobResult{Key: "k<&>\u2028\u2029\"", Metrics: json.RawMessage(`{"circuit":"a\u003cb\u2028"}`)}, func() any { return &JobResult{} }},
		{KindProgress, Progress{Key: "k", Stage: "coarse", Event: "end", WallNS: 123, Error: "boom"}, func() any { return &Progress{} }},
		{KindStats, Stats{Submitted: 10, Completed: 7, Cancelled: 2, CacheHits: 3, QueueDepth: 1, ProgressDropped: 4}, func() any { return &Stats{} }},
		{KindError, WireError{Code: CodeOverloaded, Message: "queue full"}, func() any { return &WireError{} }},
		{KindError, WireError{Code: CodeInvalid, Message: "bad \"spec\" <&>\u2028\u2029"}, func() any { return &WireError{} }},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			data, err := Encode(tc.kind, tc.body)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if want := referenceEncode(t, tc.kind, tc.body); !bytes.Equal(data, want) {
				t.Fatalf("Encode differs from the reference encoder:\n got %s\nwant %s", data, want)
			}
			env, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if env.Proto != Proto {
				t.Fatalf("proto = %q, want %q", env.Proto, Proto)
			}
			got := tc.into()
			if err := env.DecodeBody(tc.kind, got); err != nil {
				t.Fatalf("DecodeBody: %v", err)
			}
			want := reflect.New(reflect.TypeOf(tc.body))
			want.Elem().Set(reflect.ValueOf(tc.body))
			if !reflect.DeepEqual(got, want.Interface()) {
				t.Fatalf("round trip changed the body:\n got %+v\nwant %+v", got, tc.body)
			}
		})
	}
}

// TestEnvelopeRejects pins the failure modes Decode must tell apart:
// malformed JSON, version skew, unknown kinds, and checksum mismatches.
func TestEnvelopeRejects(t *testing.T) {
	good, err := Encode(KindJob, JobSpec{Preset: "tiny"})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func() []byte
		wantSub string
	}{
		{"malformed-json", func() []byte { return []byte(`{"proto": "twgrd/1", "kind":`) }, "malformed envelope"},
		{"empty", func() []byte { return nil }, "malformed envelope"},
		{"version-skew-older", func() []byte { return reencode(t, good, func(e *Envelope) { e.Proto = "twgrd/0" }) }, "version skew"},
		{"version-skew-newer", func() []byte { return reencode(t, good, func(e *Envelope) { e.Proto = "twgrd/2" }) }, "version skew"},
		{"version-missing", func() []byte { return reencode(t, good, func(e *Envelope) { e.Proto = "" }) }, "version skew"},
		{"unknown-kind", func() []byte { return reencode(t, good, func(e *Envelope) { e.Kind = "job.steal" }) }, "unknown envelope kind"},
		{"tampered-body", func() []byte {
			return reencode(t, good, func(e *Envelope) { e.Body = json.RawMessage(`{"preset":"primary2"}`) })
		}, "checksum mismatch"},
		{"tampered-sum", func() []byte { return reencode(t, good, func(e *Envelope) { e.Sum = "0000000000000000" }) }, "checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.mutate())
			if err == nil {
				t.Fatal("Decode accepted a bad envelope")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// reencode decodes raw (structurally, without Verify), applies mutate,
// and re-serializes — keeping the original Sum unless mutate changes it,
// so kind/proto edits and body tampering both invalidate the checksum
// path they should.
func reencode(t *testing.T, raw []byte, mutate func(*Envelope)) []byte {
	t.Helper()
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// Kind and proto are covered by the checksum; recompute it for edits
	// that the skew/kind checks (which run before Verify) must catch on
	// their own merits, not as checksum noise.
	old := env
	mutate(&env)
	if env.Proto != old.Proto || env.Kind != old.Kind {
		env.Sum = checksum(env.Proto, env.Kind, env.Body)
	}
	out, err := json.Marshal(&env)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return out
}

// TestDecodeBodyKindMismatch: a result envelope must not decode into a
// JobSpec just because the fields happen to overlap.
func TestDecodeBodyKindMismatch(t *testing.T) {
	data, err := Encode(KindResult, JobResult{Key: "k", Metrics: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	var spec JobSpec
	if err := env.DecodeBody(KindJob, &spec); err == nil {
		t.Fatal("DecodeBody accepted a job.result envelope as job.submit")
	}
}

// TestVerifyDetectsSplice: swapping the body of one valid envelope into
// another (same kind) fails Verify even though both parts are valid.
func TestVerifyDetectsSplice(t *testing.T) {
	a, err := Encode(KindJob, JobSpec{Preset: "tiny", Seed: 1})
	if err != nil {
		t.Fatalf("Encode a: %v", err)
	}
	b, err := Encode(KindJob, JobSpec{Preset: "small", Seed: 2})
	if err != nil {
		t.Fatalf("Encode b: %v", err)
	}
	var envA, envB Envelope
	if err := json.Unmarshal(a, &envA); err != nil {
		t.Fatalf("unmarshal a: %v", err)
	}
	if err := json.Unmarshal(b, &envB); err != nil {
		t.Fatalf("unmarshal b: %v", err)
	}
	envA.Body = envB.Body // splice: b's body under a's checksum
	if err := envA.Verify(); err == nil {
		t.Fatal("Verify accepted a spliced body")
	}
}

// referenceEncode is the encoder the frame replaced, kept as the reference
// every envelope must equal byte for byte: the body marshalled, then the
// whole Envelope marshalled around it, which compacts and HTML-escapes
// the body a second time. Its checksum is computed here, not by checksum.
func referenceEncode(t testing.TB, kind string, body any) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("reference body: %v", err)
	}
	h := fnv.New64a()
	h.Write([]byte(Proto))
	h.Write([]byte{0})
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(raw)
	out, err := json.Marshal(&Envelope{Proto: Proto, Kind: kind, Body: raw, Sum: fmt.Sprintf("%016x", h.Sum64())})
	if err != nil {
		t.Fatalf("reference envelope: %v", err)
	}
	return out
}

// frameKeys are cache keys the result frame must escape exactly as
// json.Marshal does: HTML characters, the JavaScript line separators, a
// quote and a backslash, and invalid UTF-8 (which becomes U+FFFD).
var frameKeys = []string{
	"preset:primary2@7|serial|p1|s1|pinweight",
	"inline:<a>&b",
	"sep\u2028par\u2029",
	`quo"te\`,
	"bad\xff\xfeutf8\xc3",
	"",
}

// checkResultFrame holds every way a JobResult reaches a client to the
// reference encoder: Encode, the HTTP body (newline and Content-Length
// included) and the SSE event.
func checkResultFrame(t *testing.T, res *JobResult) {
	t.Helper()
	want := referenceEncode(t, KindResult, res)
	if got, err := Encode(KindResult, *res); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Encode differs from the reference (err %v):\n got %.300s\nwant %.300s", err, got, want)
	}
	rec := httptest.NewRecorder()
	writeEnvelope(rec, http.StatusOK, KindResult, res)
	if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("HTTP body differs from the reference:\n got %.300s\nwant %.300s", got, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %s, body %d bytes", cl, rec.Body.Len())
	}
	rec = httptest.NewRecorder()
	writeSSE(rec, rec, KindResult, res)
	if got, want := rec.Body.String(), "event: "+KindResult+"\ndata: "+string(want)+"\n\n"; got != want {
		t.Fatalf("SSE event differs from the reference:\n got %.300q\nwant %.300q", got, want)
	}
}

// TestResultFrameMatchesReference: every golden as a cached result's
// Metrics, as a miss and as a hit, under every awkward key.
func TestResultFrameMatchesReference(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.json"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no goldens: %v", err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		metrics := bytes.TrimSuffix(data, []byte("\n"))
		t.Run(filepath.Base(path), func(t *testing.T) {
			for _, key := range frameKeys {
				for _, hit := range []bool{false, true} {
					checkResultFrame(t, &JobResult{Key: key, CacheHit: hit, Metrics: metrics})
				}
			}
		})
	}
}

// FuzzEnvelope fuzzes the wire's trust boundary both ways: arbitrary bytes
// into Decode must be refused or read, never panic; and a result framed
// around AppendJSON's bytes, under a fuzzed key and hit flag, must equal
// the reference encoder and read back to the same key, flag and metrics.
func FuzzEnvelope(f *testing.F) {
	good, err := Encode(KindResult, JobResult{Key: "k", CacheHit: true, Metrics: json.RawMessage(`{"a":1}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, "preset:primary2@7|serial|p1|s1|pinweight", false, "primary2", int64(12))
	f.Add([]byte(`{"proto":"twgrd/1","kind":"job.result","body":null,"sum":""}`), "inline:<a>&b", true, "a\u2028b\"", int64(-1))
	f.Add([]byte("\xff{"), "bad\xff\xfe", true, "c<&>\\\x01", int64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, key string, hit bool, name string, n int64) {
		if env, err := Decode(data); err == nil {
			var res JobResult
			_ = env.DecodeBody(env.Kind, &res)
		}
		r := &metrics.Result{Circuit: name, Algo: key, Procs: int(n), TotalTracks: int(n >> 3), Area: n,
			Wires: []metrics.Wire{{Net: int32(n), Channel: int32(n % 5), ARow: int32(n % 5), BRow: int32(n % 5), Switchable: hit}}, ChannelDensity: []int{int(n), 0},
			Phases: []metrics.Phase{{Name: name, Counters: []metrics.Counter{{Name: key, Value: n}}}}}
		in := &JobResult{Key: key, CacheHit: hit, Metrics: r.AppendJSON(nil)}
		checkResultFrame(t, in)
		env, err := Decode(referenceEncode(t, KindResult, in))
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		var out JobResult
		if err := env.DecodeBody(KindResult, &out); err != nil {
			t.Fatalf("DecodeBody: %v", err)
		}
		wantKey, _ := json.Marshal(key)
		var readKey string
		_ = json.Unmarshal(wantKey, &readKey)
		if out.Key != readKey || out.CacheHit != hit || !bytes.Equal(out.Metrics, in.Metrics) {
			t.Fatalf("round trip: got key %q hit %v, %d metrics bytes; want %q %v, %d", out.Key, out.CacheHit, len(out.Metrics), readKey, hit, len(in.Metrics))
		}
	})
}

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
	"slices"
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

// referenceDecode is Decode as it read every envelope before readFrame:
// json.Unmarshal of the whole input, then the proto, kind and checksum
// checks.
func referenceDecode(data []byte) (*Envelope, error) {
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

// referenceDecodeBody is DecodeBody as it read every body before
// readResult: json.Unmarshal.
func referenceDecodeBody(e *Envelope, kind string, v any) error {
	if e.Kind != kind {
		return fmt.Errorf("service: envelope is %q, want %q", e.Kind, kind)
	}
	if err := json.Unmarshal(e.Body, v); err != nil {
		return fmt.Errorf("service: decoding %s body: %w", kind, err)
	}
	return nil
}

// checkDecode holds Decode to the reference on data: the same error
// text, or the same Proto, Kind, Sum and Body bytes; and then DecodeBody,
// into a zero and into a pre-filled JobResult, to the same error or the
// same Key, CacheHit and Metrics bytes.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	env, err := Decode(data)
	ref, refErr := referenceDecode(data)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("Decode(%.300q):\n error %v\n reference %v", data, err, refErr)
	}
	if err != nil {
		return
	}
	if env.Proto != ref.Proto || env.Kind != ref.Kind || env.Sum != ref.Sum || !bytes.Equal(env.Body, ref.Body) {
		t.Fatalf("Decode(%.300q) = %q %q %q %.200q, reference %q %q %q %.200q", data,
			env.Proto, env.Kind, env.Sum, env.Body, ref.Proto, ref.Kind, ref.Sum, ref.Body)
	}
	for _, filled := range []bool{false, true} {
		var got, want JobResult
		if filled {
			got = JobResult{Key: "old", CacheHit: true, Metrics: json.RawMessage("[0]")}
			want = JobResult{Key: "old", CacheHit: true, Metrics: json.RawMessage("[0]")}
		}
		err, refErr := env.DecodeBody(env.Kind, &got), referenceDecodeBody(ref, env.Kind, &want)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || err == nil &&
			(got.Key != want.Key || got.CacheHit != want.CacheHit || !bytes.Equal(got.Metrics, want.Metrics)) {
			t.Fatalf("DecodeBody of %.300q (pre-filled %v): %q %v %.200q, error %v; reference %q %v %.200q, error %v", data, filled,
				got.Key, got.CacheHit, got.Metrics, err, want.Key, want.CacheHit, want.Metrics, refErr)
		}
	}
}

// TestDecodeBodyReadsBody: a Body replaced after Decode is the body
// DecodeBody reads, not the one Decode read by position.
func TestDecodeBodyReadsBody(t *testing.T) {
	data, err := Encode(KindResult, JobResult{Key: "a", Metrics: json.RawMessage(`{"n":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	env.Body = json.RawMessage(`{"key":"b","metrics":[2]}`)
	var res JobResult
	if err := env.DecodeBody(KindResult, &res); err != nil || res.Key != "b" || string(res.Metrics) != "[2]" {
		t.Fatalf("DecodeBody = %q %s, error %v; want the replaced body", res.Key, res.Metrics, err)
	}
}

// TestDecodeDepthLimit: metrics nested one level within and one beyond
// what json.Unmarshal reads inside an envelope, both of which json.Valid
// accepts on their own. (As fuzz seeds, inputs this long keep the
// fuzzer's minimizer busy for most of a run.)
func TestDecodeDepthLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 2, maxDepth - 1} {
		body := []byte(`{"key":"k","metrics":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`)
		head, tail := frame(KindResult, body)
		data := slices.Concat(head, body, tail)
		checkDecode(t, data)
		if _, err := Decode(data); (err == nil) != (depth == maxDepth-2) {
			t.Fatalf("metrics %d deep: Decode error %v", depth, err)
		}
	}
}

// FuzzEnvelope fuzzes the wire's trust boundary both ways. Arbitrary
// bytes into Decode, as they are and framed as a job.result body with a
// correct sum, must be refused or read exactly as the reference reads
// them (checkDecode), never panic. And a result framed around AppendJSON's
// bytes, under a fuzzed key and hit flag, must equal the reference
// encoder and read back to the same key, flag and metrics.
func FuzzEnvelope(f *testing.F) {
	good, err := Encode(KindResult, JobResult{Key: "k", CacheHit: true, Metrics: json.RawMessage(`{"a":1}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, "preset:primary2@7|serial|p1|s1|pinweight", false, "primary2", int64(12))
	f.Add([]byte(`{"proto":"twgrd/1","kind":"job.result","body":null,"sum":""}`), "inline:<a>&b", true, "a\u2028b\"", int64(-1))
	f.Add([]byte("\xff{"), "bad\xff\xfe", true, "c<&>\\\x01", int64(1<<40))
	// Bodies where a reading by position could differ from
	// json.Unmarshal's: whitespace around the value (the sum is over the
	// value without it), a second "body" key, a false flag, a member after
	// the metrics, no closing brace, escapes in the key; and a trailing
	// newline after an envelope.
	res := `{"key":"k","metrics":{"a":[1]}}`
	envelope := func(body string) []byte {
		return []byte(`{"proto":"twgrd/1","kind":"job.result","body":` + body + `,"sum":"` + checksum(Proto, KindResult, []byte(res)) + `"}`)
	}
	for _, seed := range [][]byte{
		envelope(" " + res), envelope(res + "\t"), []byte(" " + res), []byte(res + "\n"),
		envelope(`{"key":"x","metrics":2},"body":` + res), []byte(`1,"body":` + res),
		[]byte(`{"key":"k","cacheHit":false,"metrics":1}`),
		[]byte(`{"key":"k","metrics":{"a":1},"x":2}`),
		[]byte(`{"key":"","metrics":""`),
		[]byte(`{"key":"a\"b\u2028c\\","cacheHit":true,"metrics":"\""}`),
		append(envelope(res), '\n'),
	} {
		f.Add(seed, "k", false, "n", int64(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, key string, hit bool, name string, n int64) {
		checkDecode(t, data)
		head, tail := frame(KindResult, data)
		checkDecode(t, slices.Concat(head, data, tail))
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

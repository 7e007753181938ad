package mp

import "testing"

// sizedPayload is a Payload with a fixed price, distinguishable from the
// unpriced default.
type sizedPayload struct{ N int }

func (p sizedPayload) WireSize() int                         { return 12345 }
func (p sizedPayload) AppendWire(buf []byte) ([]byte, error) { return buf, nil }

func TestPayloadSizeSizerFastPath(t *testing.T) {
	if got := payloadSize(sizedPayload{N: 7}); got != frameOverhead+12345 {
		t.Fatalf("Payload priced at %d, want %d", got, frameOverhead+12345)
	}
}

func TestPayloadSizeBuiltinShapes(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want int
	}{
		{"int32-slice", []int32{1, 2, 3}, frameOverhead + 12},
		{"empty-int32-slice", []int32{}, frameOverhead},
		{"int", 42, frameOverhead + 8},
		{"bool", true, frameOverhead + 1},
		// One message frame for the whole slice; each element pays only
		// the flat per-element header, never a second message frame.
		{"any-slice", []any{42, true}, frameOverhead + (elemHeader + 8) + (elemHeader + 1)},
	}
	for _, tc := range cases {
		if got := payloadSize(tc.v); got != tc.want {
			t.Errorf("%s priced at %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestPayloadSizeUnencodable(t *testing.T) {
	// Payloads with no codec get a fixed price instead of failing: the
	// Virtual engine must never alter program behaviour.
	for _, v := range []any{func() {}, uncodedPayload{A: 1, B: 2}, "text"} {
		if got := payloadSize(v); got != unpricedSize {
			t.Fatalf("%T priced at %d, want %d", v, got, unpricedSize)
		}
	}
}

func TestPayloadSizeSizerScalesWithLength(t *testing.T) {
	// The batch pricing contract: a Payload batch twice as long costs twice
	// the per-element bytes on top of the same frame overhead.
	one := payloadSize(sizedBatch(1))
	two := payloadSize(sizedBatch(2))
	if two-one != one-payloadSize(sizedBatch(0)) {
		t.Fatalf("batch pricing not linear: 0->%d 1->%d 2->%d",
			payloadSize(sizedBatch(0)), one, two)
	}
}

type sizedBatch int

func (b sizedBatch) WireSize() int                         { return int(b) * 25 }
func (b sizedBatch) AppendWire(buf []byte) ([]byte, error) { return buf, nil }

// TestPayloadSizeAnySliceDifferential is the satellite audit of the
// []any recursion against the Payload fast path: relaying N flat batches
// through one []any message (the Alltoall shape) must price each batch
// at exactly its WireSize plus the flat per-element header — the old
// recursion charged a full per-message frame per element, overpricing
// every collective round by (frameOverhead-elemHeader)·N bytes.
func TestPayloadSizeAnySliceDifferential(t *testing.T) {
	batches := []any{sizedBatch(3), sizedBatch(0), sizedBatch(17)}
	want := frameOverhead
	for _, b := range batches {
		want += elemHeader + b.(Payload).WireSize()
	}
	if got := payloadSize(batches); got != want {
		t.Fatalf("[]any of Payloads priced at %d, want %d", got, want)
	}
	// Consistency with the flat batch encodings: a []any wrapping one
	// batch costs exactly one element header more than sending the batch
	// alone.
	alone := payloadSize(sizedBatch(5))
	wrapped := payloadSize([]any{sizedBatch(5)})
	if wrapped-alone != elemHeader {
		t.Fatalf("wrapping overhead = %d, want elemHeader (%d)", wrapped-alone, elemHeader)
	}
	// Nested []any (Alltoall relaying Allgather results) still charges
	// one frame total.
	nested := payloadSize([]any{[]any{sizedBatch(2)}})
	if nested != frameOverhead+elemHeader+elemHeader+sizedBatch(2).WireSize() {
		t.Fatalf("nested []any priced at %d", nested)
	}
}

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

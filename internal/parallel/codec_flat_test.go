package parallel

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/rng"
)

// The per-field decoders below decode the four fixed-width batches one
// mp.Wire* call per field, each returning (value, rest, err), and an append
// per element. They are the oracle mp's derived decoder — the record count,
// then the batch's fixed-offset DecodeWireRecords — is held to.

func refDecodeCrossingBatch(b *CrossingBatch, data []byte) ([]byte, error) {
	var err error
	var n1 int
	n1, data, err = mp.WireCount(data, 1)
	if err != nil {
		return nil, err
	}
	sl2 := make(CrossingBatch, 0, n1)
	for i3 := 0; i3 < n1; i3++ {
		var el4 CrossingMsg
		var v5 uint32
		v5, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.Net = int32(v5)
		var v6 uint32
		v6, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.X = int32(v6)
		var v7 uint32
		v7, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.Row = int32(v7)
		sl2 = append(sl2, el4)
	}
	(*b) = sl2
	return data, nil
}

func refDecodeFakePinBatch(b *FakePinBatch, data []byte) ([]byte, error) {
	var err error
	var n1 int
	n1, data, err = mp.WireCount(data, 1)
	if err != nil {
		return nil, err
	}
	sl2 := make(FakePinBatch, 0, n1)
	for i3 := 0; i3 < n1; i3++ {
		var el4 FakePinSpec
		var v5 uint32
		v5, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.Net = int32(v5)
		var v6 uint32
		v6, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.X = int32(v6)
		var v7 uint32
		v7, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.Row = int32(v7)
		var v8 byte
		v8, data, err = mp.WireByte(data)
		if err != nil {
			return nil, err
		}
		el4.Side = circuit.Side(v8)
		sl2 = append(sl2, el4)
	}
	(*b) = sl2
	return data, nil
}

func refDecodeNodeBatch(b *NodeBatch, data []byte) ([]byte, error) {
	var err error
	var n1 int
	n1, data, err = mp.WireCount(data, 1)
	if err != nil {
		return nil, err
	}
	sl2 := make(NodeBatch, 0, n1)
	for i3 := 0; i3 < n1; i3++ {
		var el4 NodeMsg
		var v5 uint32
		v5, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.Net = int32(v5)
		var v6 uint32
		v6, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.X = int32(v6)
		var v7 uint32
		v7, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.Row = int32(v7)
		var v8 byte
		v8, data, err = mp.WireByte(data)
		if err != nil {
			return nil, err
		}
		el4.Side = circuit.Side(v8)
		sl2 = append(sl2, el4)
	}
	(*b) = sl2
	return data, nil
}

func refDecodeWireBatch(b *WireBatch, data []byte) ([]byte, error) {
	var err error
	var n1 int
	n1, data, err = mp.WireCount(data, 1)
	if err != nil {
		return nil, err
	}
	sl2 := make([]metrics.Wire, 0, n1)
	for i3 := 0; i3 < n1; i3++ {
		var el4 metrics.Wire
		var v5 uint32
		v5, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.Net = int32(v5)
		var v6 uint32
		v6, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.Channel = int32(v6)
		var v7 uint32
		v7, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.AX = int32(v7)
		var v8 uint32
		v8, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.ARow = int32(v8)
		var v9 uint32
		v9, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.BX = int32(v9)
		var v10 uint32
		v10, data, err = mp.WireUint32(data)
		if err != nil {
			return nil, err
		}
		el4.BRow = int32(v10)
		var v11 bool
		v11, data, err = mp.WireBool(data)
		if err != nil {
			return nil, err
		}
		el4.Switchable = v11
		sl2 = append(sl2, el4)
	}
	b.Wires = sl2
	return data, nil
}

// flatCase is one fixed-width payload: a random batch of n elements, its
// fixed-offset decoder and its per-field reference, each returning the
// decoded value and the remainder.
type flatCase struct {
	name        string
	random      func(r *rng.RNG, n int) any
	decode, ref func(data []byte) (any, []byte, error)
}

func flatCases() []flatCase {
	anyInt := func(r *rng.RNG) int32 { return int32(r.Uint64()) >> r.Intn(32) }
	return []flatCase{
		{"CrossingBatch", func(r *rng.RNG, n int) any {
			b := make(CrossingBatch, n)
			for i := range b {
				b[i] = CrossingMsg{Net: anyInt(r), X: anyInt(r), Row: anyInt(r)}
			}
			return b
		}, decodeAs[CrossingBatch], func(data []byte) (any, []byte, error) {
			var b CrossingBatch
			rest, err := refDecodeCrossingBatch(&b, data)
			return b, rest, err
		}},
		{"FakePinBatch", func(r *rng.RNG, n int) any {
			b := make(FakePinBatch, n)
			for i := range b {
				b[i] = FakePinSpec{Net: anyInt(r), X: anyInt(r), Row: anyInt(r), Side: circuit.Side(r.Intn(256))}
			}
			return b
		}, decodeAs[FakePinBatch], func(data []byte) (any, []byte, error) {
			var b FakePinBatch
			rest, err := refDecodeFakePinBatch(&b, data)
			return b, rest, err
		}},
		{"NodeBatch", func(r *rng.RNG, n int) any {
			b := make(NodeBatch, n)
			for i := range b {
				b[i] = NodeMsg{Net: anyInt(r), X: anyInt(r), Row: anyInt(r), Side: circuit.Side(r.Intn(256))}
			}
			return b
		}, decodeAs[NodeBatch], func(data []byte) (any, []byte, error) {
			var b NodeBatch
			rest, err := refDecodeNodeBatch(&b, data)
			return b, rest, err
		}},
		{"WireBatch", func(r *rng.RNG, n int) any {
			b := WireBatch{Wires: make([]metrics.Wire, n)}
			for i := range b.Wires {
				w := &b.Wires[i]
				w.Net, w.Channel, w.Switchable = anyInt(r), anyInt(r), r.Bool()
				w.AX, w.ARow, w.BX, w.BRow = anyInt(r), anyInt(r), anyInt(r), anyInt(r)
			}
			return b
		}, decodeAs[WireBatch], func(data []byte) (any, []byte, error) {
			var b WireBatch
			rest, err := refDecodeWireBatch(&b, data)
			return b, rest, err
		}},
	}
}

// sameDecode decodes data with both forms and fails unless they agree: both
// reject it, or both accept it with equal values and equal remainders.
func sameDecode(t *testing.T, name string, tc flatCase, data []byte) (accepted bool) {
	t.Helper()
	got, rest, err := tc.decode(data)
	want, wrest, werr := tc.ref(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: fixed-offset error %v, per-field error %v", name, err, werr)
	}
	if err != nil {
		return false
	}
	if !reflect.DeepEqual(got, want) || !bytes.Equal(rest, wrest) {
		t.Fatalf("%s: fixed-offset decode differs from the per-field form:\n got %v rest %x\nwant %v rest %x", name, got, rest, want, wrest)
	}
	return true
}

// TestFlatDecodeMatchesPerField: over random batches of every fixed-width
// payload, from empty to a few hundred elements and with and without a
// trailing tail, the fixed-offset decoders return the values and the
// remainders the per-field decoders do. Every truncation of an encoding,
// a bool byte of 2 at every WireBatch element, counts past the input, and
// random byte strings are rejected or accepted by both forms alike.
func TestFlatDecodeMatchesPerField(t *testing.T) {
	r := rng.New(31)
	for _, tc := range flatCases() {
		for _, n := range []int{0, 1, 2, 3, 17, 300} {
			enc, err := body(tc.random(r, n))
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/n%d", tc.name, n)
			for _, tail := range [][]byte{nil, {0xAA}, {1, 2, 3, 4, 5, 6, 7, 8, 9}} {
				if !sameDecode(t, name, tc, append(bytes.Clone(enc), tail...)) {
					t.Fatalf("%s: a valid encoding with a %d-byte tail was rejected", name, len(tail))
				}
			}
			for k := 0; k < len(enc); k++ {
				if sameDecode(t, fmt.Sprintf("%s/truncated%d", name, k), tc, enc[:k]) {
					t.Fatalf("%s: %d of %d bytes decoded", name, k, len(enc))
				}
			}
			// A count one past the elements present, and the largest count.
			for _, count := range []uint32{uint32(n + 1), ^uint32(0)} {
				bad := bytes.Clone(enc)
				mp.AppendUint32(bad[:0], count)
				if sameDecode(t, fmt.Sprintf("%s/count%d", name, count), tc, bad) {
					t.Fatalf("%s: count %d over %d elements decoded", name, count, n)
				}
			}
			if tc.name != "WireBatch" {
				continue
			}
			for e := 0; e < n; e++ {
				bad := bytes.Clone(enc)
				bad[4+25*e+24] = 2 // Switchable: the six int32 fields precede it
				if sameDecode(t, fmt.Sprintf("%s/bool%d", name, e), tc, bad) {
					t.Fatalf("%s: bool byte 2 in element %d decoded", name, e)
				}
			}
		}
		for i := 0; i < 2000; i++ {
			data := make([]byte, r.Intn(200))
			for k := range data {
				data[k] = byte(r.Intn(256))
			}
			if len(data) >= 4 { // small counts, so some inputs decode
				mp.AppendUint32(data[:0], uint32(r.Intn(4)))
			}
			sameDecode(t, fmt.Sprintf("%s/random%d", tc.name, i), tc, data)
		}
	}
}

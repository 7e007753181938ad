package mp_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/parallel"
)

// samples returns a constructor for every payload type the frames carry,
// each making a value of n records: the three builtins, each registered
// payload type of the message set, and this package's own test payloads.
// A non-flat type counts phases or elements as its records.
func samples() []func(n int) any {
	out := []func(n int) any{
		func(n int) any { return n%2 == 1 },
		func(n int) any { return -n },
		func(n int) any {
			v := make([]int32, n)
			for i := range v {
				v[i] = int32(i*7919) - 40000
			}
			return v
		},
		func(n int) any {
			b := make(parallel.CrossingBatch, n)
			for i := range b {
				b[i] = parallel.CrossingMsg{Net: int32(i), X: -int32(i), Row: int32(i % 13)}
			}
			return b
		},
		func(n int) any {
			b := make(parallel.FakePinBatch, n)
			for i := range b {
				b[i] = parallel.FakePinSpec{Net: int32(i), X: -int32(i), Row: -1, Side: circuit.Side(i % 3)}
			}
			return b
		},
		func(n int) any {
			b := make(parallel.NodeBatch, n)
			for i := range b {
				b[i] = parallel.NodeMsg{Net: -int32(i), X: int32(i), Row: 5, Side: circuit.Side(i % 3)}
			}
			return b
		},
		func(n int) any {
			w := make([]metrics.Wire, n)
			for i := range w {
				v := int32(i*7919) - 40000
				w[i] = metrics.Wire{Net: int32(i), Channel: v, Switchable: i%2 == 0, AX: 2, ARow: 3, BX: v, BRow: -4}
			}
			return parallel.WireBatch{Wires: w}
		},
		func(n int) any {
			phases := make([]metrics.Phase, n)
			for i := range phases {
				phases[i] = metrics.Phase{Name: fmt.Sprintf("p%d", i), Elapsed: time.Duration(i),
					Counters: []metrics.Counter{{Name: "c", Value: int64(-i)}}}
			}
			return parallel.Summary{Rank: 1, InsertedFts: n, CoreWidth: -2, Phases: phases}
		},
	}
	for i := range mp.LocalPayloads(0) {
		out = append(out, func(n int) any { return mp.LocalPayloads(n)[i] })
	}
	return out
}

// writeLog records the size of every Write a frame takes.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestStreamedFramesMatchWholeFrames holds the streamed frames to the
// whole-frame reference for every payload type at record counts on both
// sides of the chunk boundary: the bytes a link writes equal appendFrame's,
// no write and no kept buffer exceeds a chunk, and reading the stream back
// through one-byte, half and random reads gives the reference's values.
func TestStreamedFramesMatchWholeFrames(t *testing.T) {
	covered := map[reflect.Type]bool{}
	for _, mk := range samples() {
		covered[reflect.TypeOf(mk(1))] = true
	}
	for _, typ := range mp.RegisteredPayloads() {
		if !covered[typ] {
			t.Errorf("registered payload %v has no sample", typ)
		}
	}
	for _, mk := range samples() {
		// Record counts on both sides of a chunk; a whole payload small,
		// and at a count that takes a Summary (phases of at least 24
		// bytes) past one chunk.
		counts := []int{0, 1, 2 * mp.FrameChunk / 24}
		if width := recordWidth(mk(0)); width > 0 {
			chunk := mp.FrameChunk / width
			counts = []int{0, 1, chunk - 1, chunk, chunk + 1, 3*chunk + 7}
		}
		for _, n := range counts {
			v := mk(n)
			name := fmt.Sprintf("%T/%d", v, n)
			want, err := mp.AppendFrame(nil, 1, 42, v)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			var w writeLog
			kept, err := mp.WriteFrame(&w, 1, 42, v)
			if err != nil {
				t.Fatalf("%s: stream: %v", name, err)
			}
			if !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("%s: streamed %d bytes differ from the %d-byte whole frame", name, w.Len(), len(want))
			}
			if len(want) <= mp.FrameChunk && len(w.sizes) != 1 {
				t.Errorf("%s: a %d-byte frame took %d writes, want one", name, len(want), len(w.sizes))
			}
			for _, size := range w.sizes {
				if size > mp.FrameChunk && !(len(w.sizes) == 1 && recordWidth(v) == 0) {
					t.Errorf("%s: a %d-byte write, chunk %d", name, size, mp.FrameChunk)
				}
			}
			if kept > mp.FrameChunk {
				t.Errorf("%s: the link would keep a %d-byte buffer", name, kept)
			}
			_, _, ref, err := mp.ReadWholeFrame(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("%s: reference decode: %v", name, err)
			}
			for _, r := range []io.Reader{
				bytes.NewReader(want),
				iotest.OneByteReader(bytes.NewReader(want)),
				iotest.HalfReader(bytes.NewReader(want)),
				mp.SplitReader(bytes.NewReader(want), uint64(n)+1, 3*mp.FrameChunk/2),
			} {
				src, tag, got, bufCap, err := mp.NewFrameStream(r).Next()
				if err != nil || src != 1 || tag != 42 || !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s through %T: src %d tag %d err %v; value equal to the reference: %v",
						name, r, src, tag, err, reflect.DeepEqual(got, ref))
				}
				if bufCap > mp.FrameChunk {
					t.Errorf("%s: the reader grew its chunk buffer to %d bytes", name, bufCap)
				}
			}
		}
	}
}

// recordWidth is the encoded width of one of v's records when v travels
// by record range, and 0 when it travels whole.
func recordWidth(v any) int {
	switch p := v.(type) {
	case []int32:
		return 4
	case interface{ WireRecords() (int, int) }:
		_, width := p.WireRecords()
		return width
	}
	return 0
}

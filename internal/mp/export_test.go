package mp

import (
	"io"
	"reflect"
)

// Hooks for this package's external tests, which import the payload
// packages that mp itself cannot.

const FrameChunk = frameChunk

// AppendFrame is the whole-frame reference encoder.
func AppendFrame(buf []byte, src, tag int, v any) ([]byte, error) {
	return appendFrame(buf, src, tag, v)
}

// WriteFrame streams one frame to w as a link does, and returns the
// capacity of the buffer the link would keep.
func WriteFrame(w io.Writer, src, tag int, v any) (int, error) {
	buf, _, err := writeFrame(w, nil, src, tag, v)
	return cap(buf), err
}

// ReadWholeFrame reads one frame body whole and decodes it: the reference.
func ReadWholeFrame(r io.Reader) (src, tag int, v any, err error) {
	body, err := readFrame(r, nil)
	if err != nil {
		return 0, 0, nil, err
	}
	return decodeFrameBody(body)
}

// FrameStream is a link's reading side over r.
type FrameStream struct{ fr *frameReader }

func NewFrameStream(r io.Reader) FrameStream { return FrameStream{newFrameReader(r)} }

// Next reads one frame, reporting the capacity of the chunk buffer after.
func (s FrameStream) Next() (src, tag int, v any, bufCap int, err error) {
	src, tag, v, err = s.fr.next()
	return src, tag, v, cap(s.fr.buf), err
}

// SplitReader hands out r's bytes in reads of 1..max bytes.
func SplitReader(r io.Reader, state uint64, max int) io.Reader {
	return &splitReader{r: r, state: state, max: max}
}

// RegisteredPayloads lists every registered payload type.
func RegisteredPayloads() []reflect.Type {
	wireRegistry.RLock()
	defer wireRegistry.RUnlock()
	var out []reflect.Type
	for t := range wireRegistry.byType {
		out = append(out, t)
	}
	return out
}

// LocalPayloads holds this package's own test payloads of n records.
func LocalPayloads(n int) []any {
	run := make(u32Run, n)
	flags := make(flagRun, n)
	for i := range run {
		run[i] = uint32(3*i + 1)
		flags[i] = flagRec{N: uint32(i), On: i%3 == 0}
	}
	return []any{run, cheapRun{run}, flags}
}

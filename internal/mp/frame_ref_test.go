package mp

import (
	"encoding/binary"
	"io"
	"slices"
)

// The whole-frame path the TCP engines used before frames streamed through
// bounded link buffers: appendFrame encodes a frame into one buffer, and
// readFrame reads one whole body, which decodeFrameBody decodes. It is the
// differential reference the streamed frames are held to, byte for byte
// and value for value.

// appendFrame appends one framed envelope to buf, reserving the payload's
// price up front.
func appendFrame(buf []byte, src, tag int, v any) ([]byte, error) {
	buf = slices.Grow(buf, frameHeaderLen+envelopeLen+4+elemSize(v))
	lenAt := len(buf)
	buf = AppendUint32(buf, 0) // length, patched below
	buf = AppendInt(buf, src)
	buf = AppendInt(buf, tag)
	buf, err := AppendAny(buf, v)
	if err != nil {
		return nil, err
	}
	body := len(buf) - lenAt - frameHeaderLen
	if body > maxFrameLen {
		return nil, wireErr("frame body %d exceeds %d byte(s)", body, maxFrameLen)
	}
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(body))
	return buf, nil
}

// decodeFrameBody decodes an envelope body written by appendFrame. The
// body must be consumed exactly; trailing bytes mean a framing bug.
func decodeFrameBody(body []byte) (src, tag int, v any, err error) {
	src, rest, err := WireInt(body)
	if err != nil {
		return 0, 0, nil, err
	}
	tag, rest, err = WireInt(rest)
	if err != nil {
		return 0, 0, nil, err
	}
	v, rest, err = WireAny(rest)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(rest) != 0 {
		return 0, 0, nil, wireErr("frame left %d undecoded byte(s)", len(rest))
	}
	return src, tag, v, nil
}

// readFrame reads one length-prefixed frame body from r into a buffer of
// the claimed size, reusing scratch when it is large enough.
func readFrame(r io.Reader, scratch []byte) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	n, err := readFrameLen(r, &hdr)
	if err != nil {
		return nil, err
	}
	body := scratch
	if cap(body) < n {
		body = make([]byte, n)
	}
	body = body[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, wireErr("truncated frame: %v", err)
	}
	return body, nil
}

package mp

//go:generate go run parroute/cmd/mpgen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// The parroute-mpwire/1 flat binary codec — the one wire format. Integers
// travel as fixed-width little-endian (8 bytes for int/int64/uint64, 1
// byte for bool and byte-sized types), strings and slices carry a u32
// length/count prefix, and interface values carry a u32 wire type id plus
// a u32 body length. Every id is recorded in mp_protocol.json; id 0 and
// any id or type without a codec is an ErrWire, never a fallback. The
// encoding is canonical — one byte sequence per value — which is what
// lets the fuzz targets assert encode→decode→re-encode byte-identity for
// every accepted input.
//
// This file is the hand-written substrate: append/consume primitives,
// the codecs of the three builtin payload shapes the collectives relay,
// and the wire-id registry generated init functions populate. The
// per-type codecs live in the mpwire_gen.go files (`go generate ./...`
// or `go run parroute/cmd/mpgen` regenerates them; `mpgen -check` is the
// CI drift gate).

// WireSchemaVersion names the codec format carried in the protocol
// manifest (mp_protocol.json).
const WireSchemaVersion = "parroute-mpwire/1"

// ErrWire is wrapped by every decode error: truncated input, oversized
// counts, or malformed values.
var ErrWire = errors.New("mp: malformed wire data")

func wireErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrWire, fmt.Sprintf(format, args...))
}

// AppendUint32 appends v in little-endian order.
func AppendUint32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// AppendUint64 appends v in little-endian order.
func AppendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// AppendInt appends v as a little-endian int64.
func AppendInt(buf []byte, v int) []byte {
	return AppendUint64(buf, uint64(int64(v)))
}

// AppendBool appends v as one byte (0 or 1).
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendString appends a u32 length prefix and the string bytes.
func AppendString(buf []byte, s string) []byte {
	buf = AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// WireUint32 consumes a little-endian u32.
func WireUint32(data []byte) (uint32, []byte, error) {
	if len(data) < 4 {
		return 0, nil, wireErr("truncated uint32: %d byte(s) left", len(data))
	}
	return binary.LittleEndian.Uint32(data), data[4:], nil
}

// WireUint64 consumes a little-endian u64.
func WireUint64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, wireErr("truncated uint64: %d byte(s) left", len(data))
	}
	return binary.LittleEndian.Uint64(data), data[8:], nil
}

// WireInt consumes a little-endian int64 as an int.
func WireInt(data []byte) (int, []byte, error) {
	v, rest, err := WireUint64(data)
	return int(int64(v)), rest, err
}

// WireByte consumes one byte.
func WireByte(data []byte) (byte, []byte, error) {
	if len(data) < 1 {
		return 0, nil, wireErr("truncated byte")
	}
	return data[0], data[1:], nil
}

// WireBool consumes one byte, rejecting values other than 0 and 1 so the
// encoding stays canonical (decode→re-encode is byte-identical).
func WireBool(data []byte) (bool, []byte, error) {
	b, rest, err := WireByte(data)
	if err == nil {
		err = CheckBool(b)
	}
	if err != nil {
		return false, nil, err
	}
	return b == 1, rest, nil
}

// CheckBool rejects a bool byte other than 0 and 1.
func CheckBool(b byte) error {
	if b > 1 {
		return wireErr("bool byte %d is not 0 or 1", b)
	}
	return nil
}

// WireString consumes a u32 length prefix and that many bytes.
func WireString(data []byte) (string, []byte, error) {
	n, rest, err := WireUint32(data)
	if err != nil {
		return "", nil, err
	}
	if uint64(n) > uint64(len(rest)) {
		return "", nil, wireErr("string length %d exceeds %d remaining byte(s)", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

// WireCount consumes a u32 element count, bounding count×width by the
// remaining input: width is the element's encoded width, or 1 for elements
// of variable length (every generated element encoding consumes at least
// one byte), so a count the input cannot hold never forces an allocation.
func WireCount(data []byte, width int) (int, []byte, error) {
	n, rest, err := WireUint32(data)
	if err != nil {
		return 0, nil, err
	}
	if uint64(n)*uint64(width) > uint64(len(rest)) {
		return 0, nil, wireErr("count %d of %d-byte elements exceeds %d remaining byte(s)", n, width, len(rest))
	}
	return int(n), rest, nil
}

// ---- payloads and the interface (any) encoding ----

// Payload is what a type implements to cross a Comm: its flat price for
// the Virtual engine's cost model (approximate encoded bytes, excluding
// the message framing — the size only feeds transfer time, never program
// behaviour) and its parroute-mpwire/1 body. The decoding half,
// DecodeWire on the pointer type, is what Register's constraint adds.
// mpgen derives all three from the //mp:payload struct layouts.
type Payload interface {
	WireSize() int
	AppendWire(buf []byte) ([]byte, error)
}

// Reserved wire ids of the three builtin payload shapes the collectives
// relay, as recorded in mp_protocol.json (mpproto.BuiltinTypes); id 1
// is retired, and registered payload types start at firstPayloadWireID.
const (
	wireIDInt32s       = 2 // []int32
	wireIDBool         = 3
	wireIDInt          = 4
	firstPayloadWireID = 5
)

// wireCodec is one registered payload type's entry in the id registry.
type wireCodec struct {
	id  uint32
	typ reflect.Type
	dec func(data []byte) (any, []byte, error)
}

var wireRegistry = struct {
	sync.RWMutex
	byID   map[uint32]*wireCodec
	byType map[reflect.Type]*wireCodec
}{
	byID:   map[uint32]*wireCodec{},
	byType: map[reflect.Type]*wireCodec{},
}

// Register makes values of T cross AppendAny/WireAny under the
// manifest's wire id: mp.Register[T](id), called from generated init
// functions. A reserved id or a conflicting re-registration panics.
func Register[T Payload, P interface {
	*T
	DecodeWire(data []byte) ([]byte, error)
}](id uint32) {
	typ := reflect.TypeFor[T]()
	if id < firstPayloadWireID {
		panic(fmt.Sprintf("mp: Register[%v]: id %d is reserved", typ, id)) //lint:allow panic-in-library registration-time programming error
	}
	wireRegistry.Lock()
	defer wireRegistry.Unlock()
	if prev, ok := wireRegistry.byID[id]; ok && prev.typ != typ {
		panic(fmt.Sprintf("mp: Register[%v]: id %d already registered for %v", typ, id, prev.typ)) //lint:allow panic-in-library registration-time programming error
	}
	c := &wireCodec{id: id, typ: typ, dec: func(data []byte) (any, []byte, error) {
		var x T
		rest, err := P(&x).DecodeWire(data)
		return x, rest, err
	}}
	wireRegistry.byID[id] = c
	wireRegistry.byType[typ] = c
}

func codecByType(v any) *wireCodec {
	wireRegistry.RLock()
	defer wireRegistry.RUnlock()
	return wireRegistry.byType[reflect.TypeOf(v)]
}

func codecByID(id uint32) *wireCodec {
	wireRegistry.RLock()
	defer wireRegistry.RUnlock()
	return wireRegistry.byID[id]
}

// AppendAny appends an interface value: u32 wire id, u32 body length,
// body. The value must be a builtin shape or a registered Payload; any
// other type is an error wrapping ErrWire that names it.
func AppendAny(buf []byte, v any) ([]byte, error) {
	idAt := len(buf)
	buf = AppendUint32(buf, 0) // id and length, patched below
	buf = AppendUint32(buf, 0)
	var id uint32
	switch p := v.(type) {
	case []int32:
		id = wireIDInt32s
		buf = AppendUint32(buf, uint32(len(p)))
		at := len(buf)
		buf = append(buf, make([]byte, 4*len(p))...)
		for i, x := range p {
			binary.LittleEndian.PutUint32(buf[at+4*i:], uint32(x))
		}
	case int:
		id = wireIDInt
		buf = AppendInt(buf, p)
	case bool:
		id = wireIDBool
		buf = AppendBool(buf, p)
	default:
		c := codecByType(v)
		if c == nil {
			return nil, wireErr("no wire codec registered for payload type %T", v)
		}
		id = c.id
		var err error
		if buf, err = v.(Payload).AppendWire(buf); err != nil {
			return nil, err
		}
	}
	binary.LittleEndian.PutUint32(buf[idAt:], id)
	binary.LittleEndian.PutUint32(buf[idAt+4:], uint32(len(buf)-idAt-elemHeader))
	return buf, nil
}

// WireAny consumes an interface value written by AppendAny. The body
// must be consumed exactly; an unknown id (0 included) is an ErrWire.
func WireAny(data []byte) (any, []byte, error) {
	id, rest, err := WireUint32(data)
	if err != nil {
		return nil, nil, err
	}
	n, rest, err := WireUint32(rest)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n) > uint64(len(rest)) {
		return nil, nil, wireErr("any body length %d exceeds %d remaining byte(s)", n, len(rest))
	}
	body, tail := rest[:n], rest[n:]
	var v any
	var after []byte
	switch id {
	case wireIDInt32s:
		v, after, err = wireInt32s(body)
	case wireIDBool:
		v, after, err = WireBool(body)
	case wireIDInt:
		v, after, err = WireInt(body)
	default:
		c := codecByID(id)
		if c == nil {
			return nil, nil, wireErr("unknown wire type id %d", id)
		}
		v, after, err = c.dec(body)
	}
	if err != nil {
		return nil, nil, err
	}
	if len(after) != 0 {
		return nil, nil, wireErr("wire type id %d left %d undecoded byte(s)", id, len(after))
	}
	return v, tail, nil
}

// wireInt32s consumes a []int32 body: u32 count, then 4-byte elements.
// The count is checked against the remaining bytes before allocating.
func wireInt32s(data []byte) ([]int32, []byte, error) {
	n, rest, err := WireCount(data, 4)
	if err != nil {
		return nil, nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(rest[4*i:]))
	}
	return out, rest[4*n:], nil
}

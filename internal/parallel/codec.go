package parallel

import (
	_ "embed"
	"encoding/binary"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/mp"
)

// The parroute-mpwire/1 codecs of the payload types in messages.go
// (DESIGN.md §11). A flat batch — CrossingBatch, FakePinBatch, NodeBatch,
// WireBatch — states only its fixed-width records, each field little-endian
// at a fixed offset, and mp derives its body, decoder, stream and price.
// Summary codes its own body field by field through the mp.Wire* helpers.
// testdata/wire/*.hex pins every byte (TestWireGolden): a codec changes
// together with its golden.

// Encoded record widths. A FakePinSpec and a NodeMsg share one layout: Net,
// X and Row as u32, then the Side byte. A wire ends in its Switchable byte.
const (
	crossingWidth = 12
	pinWidth      = 13
	wireWidth     = 25
)

// The protocol's source is this package's part of mp.WireProtocolChecksum:
// a tag renumbering or a payload or codec edit changes the fingerprint the
// TCP hello compares, so a mesh of two builds of different protocols
// refuses to form.
var (
	//go:embed messages.go
	messagesSource []byte
	//go:embed codec.go
	codecSource []byte
)

func init() {
	mp.Register[CrossingBatch](5)
	mp.Register[FakePinBatch](6)
	mp.Register[NodeBatch](7)
	mp.Register[Summary](8)
	mp.Register[WireBatch](9)
	mp.AddProtocolSource(messagesSource, codecSource)
}

// pinRecord is the underlying type of FakePinSpec and NodeMsg.
type pinRecord = struct {
	Net  int32
	X    int32
	Row  int32
	Side circuit.Side
}

// appendPins appends the 13-byte records of sl to buf.
func appendPins[T ~pinRecord](buf []byte, sl []T) []byte {
	at0 := len(buf)
	buf = append(buf, make([]byte, pinWidth*len(sl))...)
	for i := range sl {
		p, at := pinRecord(sl[i]), (*[pinWidth]byte)(buf[at0+pinWidth*i:])
		binary.LittleEndian.PutUint32(at[0:], uint32(p.Net))
		binary.LittleEndian.PutUint32(at[4:], uint32(p.X))
		binary.LittleEndian.PutUint32(at[8:], uint32(p.Row))
		at[12] = byte(p.Side)
	}
	return buf
}

// decodePins appends the whole 13-byte records in data to *b, first giving
// a *b that holds none room for reserve records.
func decodePins[T ~pinRecord](b *[]T, data []byte, reserve int) {
	if *b == nil {
		*b = make([]T, 0, reserve)
	}
	at0 := len(*b)
	*b = append(*b, make([]T, len(data)/pinWidth)...)
	sl := (*b)[at0:]
	for i := range sl {
		at := (*[pinWidth]byte)(data[pinWidth*i:])
		sl[i] = T(pinRecord{
			Net:  int32(binary.LittleEndian.Uint32(at[0:])),
			X:    int32(binary.LittleEndian.Uint32(at[4:])),
			Row:  int32(binary.LittleEndian.Uint32(at[8:])),
			Side: circuit.Side(at[12]),
		})
	}
}

// WireRecords returns b's record count and encoded record width.
func (b CrossingBatch) WireRecords() (int, int) { return len(b), crossingWidth }

// AppendWireRecords appends the encodings of records [lo, hi) of b to buf.
func (b CrossingBatch) AppendWireRecords(buf []byte, lo, hi int) []byte {
	at0, sl := len(buf), b[lo:hi]
	buf = append(buf, make([]byte, crossingWidth*len(sl))...)
	for i := range sl {
		at := (*[crossingWidth]byte)(buf[at0+crossingWidth*i:])
		binary.LittleEndian.PutUint32(at[0:], uint32(sl[i].Net))
		binary.LittleEndian.PutUint32(at[4:], uint32(sl[i].X))
		binary.LittleEndian.PutUint32(at[8:], uint32(sl[i].Row))
	}
	return buf
}

// DecodeWireRecords appends the whole records in data to b, first giving a
// b that holds none room for reserve records.
func (b *CrossingBatch) DecodeWireRecords(data []byte, reserve int) error {
	if *b == nil {
		*b = make(CrossingBatch, 0, reserve)
	}
	at0 := len(*b)
	*b = append(*b, make(CrossingBatch, len(data)/crossingWidth)...)
	sl := (*b)[at0:]
	for i := range sl {
		at := (*[crossingWidth]byte)(data[crossingWidth*i:])
		sl[i].Net = int32(binary.LittleEndian.Uint32(at[0:]))
		sl[i].X = int32(binary.LittleEndian.Uint32(at[4:]))
		sl[i].Row = int32(binary.LittleEndian.Uint32(at[8:]))
	}
	return nil
}

// WireRecords returns b's record count and encoded record width.
func (b FakePinBatch) WireRecords() (int, int) { return len(b), pinWidth }

// AppendWireRecords appends the encodings of records [lo, hi) of b to buf.
func (b FakePinBatch) AppendWireRecords(buf []byte, lo, hi int) []byte {
	return appendPins(buf, b[lo:hi])
}

// DecodeWireRecords appends the whole records in data to b, first giving a
// b that holds none room for reserve records.
func (b *FakePinBatch) DecodeWireRecords(data []byte, reserve int) error {
	decodePins((*[]FakePinSpec)(b), data, reserve)
	return nil
}

// WireRecords returns b's record count and encoded record width.
func (b NodeBatch) WireRecords() (int, int) { return len(b), pinWidth }

// AppendWireRecords appends the encodings of records [lo, hi) of b to buf.
func (b NodeBatch) AppendWireRecords(buf []byte, lo, hi int) []byte {
	return appendPins(buf, b[lo:hi])
}

// DecodeWireRecords appends the whole records in data to b, first giving a
// b that holds none room for reserve records.
func (b *NodeBatch) DecodeWireRecords(data []byte, reserve int) error {
	decodePins((*[]NodeMsg)(b), data, reserve)
	return nil
}

// WireRecords returns b's record count and encoded record width.
func (b WireBatch) WireRecords() (int, int) { return len(b.Wires), wireWidth }

// AppendWireRecords appends the encodings of records [lo, hi) of b to buf.
func (b WireBatch) AppendWireRecords(buf []byte, lo, hi int) []byte {
	at0, sl := len(buf), b.Wires[lo:hi]
	buf = append(buf, make([]byte, wireWidth*len(sl))...)
	for i := range sl {
		at := (*[wireWidth]byte)(buf[at0+wireWidth*i:])
		binary.LittleEndian.PutUint32(at[0:], uint32(sl[i].Net))
		binary.LittleEndian.PutUint32(at[4:], uint32(sl[i].Channel))
		binary.LittleEndian.PutUint32(at[8:], uint32(sl[i].AX))
		binary.LittleEndian.PutUint32(at[12:], uint32(sl[i].ARow))
		binary.LittleEndian.PutUint32(at[16:], uint32(sl[i].BX))
		binary.LittleEndian.PutUint32(at[20:], uint32(sl[i].BRow))
		if sl[i].Switchable {
			at[24] = 1
		}
	}
	return buf
}

// DecodeWireRecords appends the whole records in data to b, first giving a
// b that holds none room for reserve records.
func (b *WireBatch) DecodeWireRecords(data []byte, reserve int) error {
	if b.Wires == nil {
		b.Wires = make([]metrics.Wire, 0, reserve)
	}
	at0 := len(b.Wires)
	b.Wires = append(b.Wires, make([]metrics.Wire, len(data)/wireWidth)...)
	sl := b.Wires[at0:]
	for i := range sl {
		at := (*[wireWidth]byte)(data[wireWidth*i:])
		sl[i].Net = int32(binary.LittleEndian.Uint32(at[0:]))
		sl[i].Channel = int32(binary.LittleEndian.Uint32(at[4:]))
		sl[i].AX = int32(binary.LittleEndian.Uint32(at[8:]))
		sl[i].ARow = int32(binary.LittleEndian.Uint32(at[12:]))
		sl[i].BX = int32(binary.LittleEndian.Uint32(at[16:]))
		sl[i].BRow = int32(binary.LittleEndian.Uint32(at[20:]))
		if err := mp.CheckBool(at[24]); err != nil {
			return err
		}
		sl[i].Switchable = at[24] == 1
	}
	return nil
}

// WireSize prices b for the Virtual engine: its seven counters, and a
// flat 24 bytes a phase.
func (b Summary) WireSize() int { return 56 + len(b.Phases)*24 }

// AppendWire appends b's body to buf: the seven counters as 8-byte
// integers, then the phases, each its name, elapsed nanoseconds and
// counters, every list behind a u32 count.
func (b Summary) AppendWire(buf []byte) ([]byte, error) {
	for _, v := range b.counters() {
		buf = mp.AppendInt(buf, *v)
	}
	buf = mp.AppendUint32(buf, uint32(len(b.Phases)))
	for _, ph := range b.Phases {
		buf = mp.AppendString(buf, ph.Name)
		buf = mp.AppendUint64(buf, uint64(ph.Elapsed))
		buf = mp.AppendUint32(buf, uint32(len(ph.Counters)))
		for _, c := range ph.Counters {
			buf = mp.AppendString(buf, c.Name)
			buf = mp.AppendUint64(buf, uint64(c.Value))
		}
	}
	return buf, nil
}

// DecodeWire decodes a body from data into b, returning the remainder.
// Every list decodes non-nil, empty ones included.
func (b *Summary) DecodeWire(data []byte) ([]byte, error) {
	var err error
	for _, v := range b.counters() {
		if *v, data, err = mp.WireInt(data); err != nil {
			return nil, err
		}
	}
	var n int
	if n, data, err = mp.WireCount(data, 1); err != nil {
		return nil, err
	}
	b.Phases = make([]metrics.Phase, n)
	for i := range b.Phases {
		ph := &b.Phases[i]
		var ns uint64
		if ph.Name, data, err = mp.WireString(data); err == nil {
			ns, data, err = mp.WireUint64(data)
		}
		if err == nil {
			n, data, err = mp.WireCount(data, 1)
		}
		if err != nil {
			return nil, err
		}
		ph.Elapsed, ph.Counters = time.Duration(ns), make([]metrics.Counter, n)
		for j := range ph.Counters {
			c := &ph.Counters[j]
			var v uint64
			if c.Name, data, err = mp.WireString(data); err == nil {
				v, data, err = mp.WireUint64(data)
			}
			if err != nil {
				return nil, err
			}
			c.Value = int64(v)
		}
	}
	return data, nil
}

// counters lists b's counters in wire order.
func (b *Summary) counters() [7]*int {
	return [...]*int{&b.Rank, &b.InsertedFts, &b.ForcedEdges, &b.SwitchableWs, &b.SwitchFlips, &b.CoarseFlips, &b.CoreWidth}
}

// Code generated by mpgen from the //mp:payload types of this package; DO NOT EDIT.
//
// Flat parroute-mpwire/1 codecs, pricing, and registration (mp.Payload) for the mp
// message set, kept in lockstep with mp_protocol.json. Regenerate with
// `go generate ./...` (or `go run parroute/cmd/mpgen`); `mpgen -check`
// gates CI against stale output.

package parallel

import (
	"encoding/binary"
	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"time"
)

// WireSize prices CrossingBatch at its flat per-field width (see mp.Payload and
// mp_protocol.json); derived from the struct layout by mpgen.
func (b CrossingBatch) WireSize() int { return len(b) * 12 }

// AppendWire appends b's parroute-mpwire/1 body to buf.
func (b CrossingBatch) AppendWire(buf []byte) ([]byte, error) {
	buf = mp.AppendUint32(buf, uint32(len(b)))
	for i1 := range b {
		buf = mp.AppendUint32(buf, uint32(b[i1].Net))
		buf = mp.AppendUint32(buf, uint32(b[i1].X))
		buf = mp.AppendUint32(buf, uint32(b[i1].Row))
	}
	return buf, nil
}

// DecodeWire decodes a parroute-mpwire/1 body from data into b, returning
// the unconsumed remainder.
func (b *CrossingBatch) DecodeWire(data []byte) ([]byte, error) {
	var err error
	var n1 int
	n1, data, err = mp.WireCount(data, 12)
	if err != nil {
		return nil, err
	}
	sl2 := make(CrossingBatch, n1)
	for i := range sl2 {
		at := (*[12]byte)(data[12*i:])
		sl2[i].Net = int32(binary.LittleEndian.Uint32(at[0:]))
		sl2[i].X = int32(binary.LittleEndian.Uint32(at[4:]))
		sl2[i].Row = int32(binary.LittleEndian.Uint32(at[8:]))
	}
	data = data[12*n1:]
	(*b) = sl2
	return data, nil
}

// WireSize prices FakePinBatch at its flat per-field width (see mp.Payload and
// mp_protocol.json); derived from the struct layout by mpgen.
func (b FakePinBatch) WireSize() int { return len(b) * 13 }

// AppendWire appends b's parroute-mpwire/1 body to buf.
func (b FakePinBatch) AppendWire(buf []byte) ([]byte, error) {
	buf = mp.AppendUint32(buf, uint32(len(b)))
	for i1 := range b {
		buf = mp.AppendUint32(buf, uint32(b[i1].Net))
		buf = mp.AppendUint32(buf, uint32(b[i1].X))
		buf = mp.AppendUint32(buf, uint32(b[i1].Row))
		buf = append(buf, byte(b[i1].Side))
	}
	return buf, nil
}

// DecodeWire decodes a parroute-mpwire/1 body from data into b, returning
// the unconsumed remainder.
func (b *FakePinBatch) DecodeWire(data []byte) ([]byte, error) {
	var err error
	var n1 int
	n1, data, err = mp.WireCount(data, 13)
	if err != nil {
		return nil, err
	}
	sl2 := make(FakePinBatch, n1)
	for i := range sl2 {
		at := (*[13]byte)(data[13*i:])
		sl2[i].Net = int32(binary.LittleEndian.Uint32(at[0:]))
		sl2[i].X = int32(binary.LittleEndian.Uint32(at[4:]))
		sl2[i].Row = int32(binary.LittleEndian.Uint32(at[8:]))
		sl2[i].Side = circuit.Side(at[12])
	}
	data = data[13*n1:]
	(*b) = sl2
	return data, nil
}

// WireSize prices NodeBatch at its flat per-field width (see mp.Payload and
// mp_protocol.json); derived from the struct layout by mpgen.
func (b NodeBatch) WireSize() int { return len(b) * 13 }

// AppendWire appends b's parroute-mpwire/1 body to buf.
func (b NodeBatch) AppendWire(buf []byte) ([]byte, error) {
	buf = mp.AppendUint32(buf, uint32(len(b)))
	for i1 := range b {
		buf = mp.AppendUint32(buf, uint32(b[i1].Net))
		buf = mp.AppendUint32(buf, uint32(b[i1].X))
		buf = mp.AppendUint32(buf, uint32(b[i1].Row))
		buf = append(buf, byte(b[i1].Side))
	}
	return buf, nil
}

// DecodeWire decodes a parroute-mpwire/1 body from data into b, returning
// the unconsumed remainder.
func (b *NodeBatch) DecodeWire(data []byte) ([]byte, error) {
	var err error
	var n1 int
	n1, data, err = mp.WireCount(data, 13)
	if err != nil {
		return nil, err
	}
	sl2 := make(NodeBatch, n1)
	for i := range sl2 {
		at := (*[13]byte)(data[13*i:])
		sl2[i].Net = int32(binary.LittleEndian.Uint32(at[0:]))
		sl2[i].X = int32(binary.LittleEndian.Uint32(at[4:]))
		sl2[i].Row = int32(binary.LittleEndian.Uint32(at[8:]))
		sl2[i].Side = circuit.Side(at[12])
	}
	data = data[13*n1:]
	(*b) = sl2
	return data, nil
}

// WireSize prices Summary at its flat per-field width (see mp.Payload and
// mp_protocol.json); derived from the struct layout by mpgen.
func (b Summary) WireSize() int { return 56 + len(b.Phases)*24 }

// AppendWire appends b's parroute-mpwire/1 body to buf.
func (b Summary) AppendWire(buf []byte) ([]byte, error) {
	buf = mp.AppendUint64(buf, uint64(b.Rank))
	buf = mp.AppendUint64(buf, uint64(b.InsertedFts))
	buf = mp.AppendUint64(buf, uint64(b.ForcedEdges))
	buf = mp.AppendUint64(buf, uint64(b.SwitchableWs))
	buf = mp.AppendUint64(buf, uint64(b.SwitchFlips))
	buf = mp.AppendUint64(buf, uint64(b.CoarseFlips))
	buf = mp.AppendUint64(buf, uint64(b.CoreWidth))
	buf = mp.AppendUint32(buf, uint32(len(b.Phases)))
	for i1 := range b.Phases {
		buf = mp.AppendString(buf, string(b.Phases[i1].Name))
		buf = mp.AppendUint64(buf, uint64(b.Phases[i1].Elapsed))
		buf = mp.AppendUint32(buf, uint32(len(b.Phases[i1].Counters)))
		for i2 := range b.Phases[i1].Counters {
			buf = mp.AppendString(buf, string(b.Phases[i1].Counters[i2].Name))
			buf = mp.AppendUint64(buf, uint64(b.Phases[i1].Counters[i2].Value))
		}
	}
	return buf, nil
}

// DecodeWire decodes a parroute-mpwire/1 body from data into b, returning
// the unconsumed remainder.
func (b *Summary) DecodeWire(data []byte) ([]byte, error) {
	var err error
	var v1 uint64
	v1, data, err = mp.WireUint64(data)
	if err != nil {
		return nil, err
	}
	b.Rank = int(v1)
	var v2 uint64
	v2, data, err = mp.WireUint64(data)
	if err != nil {
		return nil, err
	}
	b.InsertedFts = int(v2)
	var v3 uint64
	v3, data, err = mp.WireUint64(data)
	if err != nil {
		return nil, err
	}
	b.ForcedEdges = int(v3)
	var v4 uint64
	v4, data, err = mp.WireUint64(data)
	if err != nil {
		return nil, err
	}
	b.SwitchableWs = int(v4)
	var v5 uint64
	v5, data, err = mp.WireUint64(data)
	if err != nil {
		return nil, err
	}
	b.SwitchFlips = int(v5)
	var v6 uint64
	v6, data, err = mp.WireUint64(data)
	if err != nil {
		return nil, err
	}
	b.CoarseFlips = int(v6)
	var v7 uint64
	v7, data, err = mp.WireUint64(data)
	if err != nil {
		return nil, err
	}
	b.CoreWidth = int(v7)
	var n8 int
	n8, data, err = mp.WireCount(data, 1)
	if err != nil {
		return nil, err
	}
	sl9 := make([]metrics.Phase, 0, n8)
	for i10 := 0; i10 < n8; i10++ {
		var el11 metrics.Phase
		var v12 string
		v12, data, err = mp.WireString(data)
		if err != nil {
			return nil, err
		}
		el11.Name = v12
		var v13 uint64
		v13, data, err = mp.WireUint64(data)
		if err != nil {
			return nil, err
		}
		el11.Elapsed = time.Duration(v13)
		var n14 int
		n14, data, err = mp.WireCount(data, 1)
		if err != nil {
			return nil, err
		}
		sl15 := make([]metrics.Counter, 0, n14)
		for i16 := 0; i16 < n14; i16++ {
			var el17 metrics.Counter
			var v18 string
			v18, data, err = mp.WireString(data)
			if err != nil {
				return nil, err
			}
			el17.Name = v18
			var v19 uint64
			v19, data, err = mp.WireUint64(data)
			if err != nil {
				return nil, err
			}
			el17.Value = int64(v19)
			sl15 = append(sl15, el17)
		}
		el11.Counters = sl15
		sl9 = append(sl9, el11)
	}
	b.Phases = sl9
	return data, nil
}

// WireSize prices WireBatch at its flat per-field width (see mp.Payload and
// mp_protocol.json); derived from the struct layout by mpgen.
func (b WireBatch) WireSize() int { return len(b.Wires) * 37 }

// AppendWire appends b's parroute-mpwire/1 body to buf.
func (b WireBatch) AppendWire(buf []byte) ([]byte, error) {
	buf = mp.AppendUint32(buf, uint32(len(b.Wires)))
	for i1 := range b.Wires {
		buf = mp.AppendUint32(buf, uint32(b.Wires[i1].Net))
		buf = mp.AppendUint32(buf, uint32(b.Wires[i1].Channel))
		buf = mp.AppendUint32(buf, uint32(b.Wires[i1].Span.Lo))
		buf = mp.AppendUint32(buf, uint32(b.Wires[i1].Span.Hi))
		buf = mp.AppendBool(buf, bool(b.Wires[i1].Switchable))
		buf = mp.AppendUint32(buf, uint32(b.Wires[i1].Row))
		buf = mp.AppendUint32(buf, uint32(b.Wires[i1].AX))
		buf = mp.AppendUint32(buf, uint32(b.Wires[i1].ARow))
		buf = mp.AppendUint32(buf, uint32(b.Wires[i1].BX))
		buf = mp.AppendUint32(buf, uint32(b.Wires[i1].BRow))
	}
	return buf, nil
}

// DecodeWire decodes a parroute-mpwire/1 body from data into b, returning
// the unconsumed remainder.
func (b *WireBatch) DecodeWire(data []byte) ([]byte, error) {
	var err error
	var n1 int
	n1, data, err = mp.WireCount(data, 37)
	if err != nil {
		return nil, err
	}
	sl2 := make([]metrics.Wire, n1)
	for i := range sl2 {
		at := (*[37]byte)(data[37*i:])
		sl2[i].Net = int32(binary.LittleEndian.Uint32(at[0:]))
		sl2[i].Channel = int32(binary.LittleEndian.Uint32(at[4:]))
		sl2[i].Span.Lo = int32(binary.LittleEndian.Uint32(at[8:]))
		sl2[i].Span.Hi = int32(binary.LittleEndian.Uint32(at[12:]))
		if err = mp.CheckBool(at[16]); err != nil {
			return nil, err
		}
		sl2[i].Switchable = at[16] == 1
		sl2[i].Row = int32(binary.LittleEndian.Uint32(at[17:]))
		sl2[i].AX = int32(binary.LittleEndian.Uint32(at[21:]))
		sl2[i].ARow = int32(binary.LittleEndian.Uint32(at[25:]))
		sl2[i].BX = int32(binary.LittleEndian.Uint32(at[29:]))
		sl2[i].BRow = int32(binary.LittleEndian.Uint32(at[33:]))
	}
	data = data[37*n1:]
	b.Wires = sl2
	return data, nil
}

func init() {
	mp.Register[CrossingBatch](5)
	mp.Register[FakePinBatch](6)
	mp.Register[NodeBatch](7)
	mp.Register[Summary](8)
	mp.Register[WireBatch](9)
}

package mp

import "time"

// CostModel parameterizes the Virtual engine's communication timing. A
// point-to-point message of s bytes sent at sender time t becomes available
// to the receiver at t + Latency + s/Bandwidth; the sender's clock advances
// by SendOverhead, the receiver's by RecvOverhead on pickup. A barrier
// costs BarrierBase + Procs*BarrierPerProc on top of the global maximum.
type CostModel struct {
	Name           string
	SendOverhead   time.Duration
	RecvOverhead   time.Duration
	Latency        time.Duration
	BytesPerSecond float64
	BarrierBase    time.Duration
	BarrierPerProc time.Duration
}

// transfer returns the in-flight delay of a message of the given size.
func (m *CostModel) transfer(bytes int) time.Duration {
	d := m.Latency
	if m.BytesPerSecond > 0 {
		d += time.Duration(float64(bytes) / m.BytesPerSecond * float64(time.Second))
	}
	return d
}

// SMP models the paper's 8-processor Sun SparcCenter 1000: MPI over shared
// memory, so messages are memcpy-fast but not free.
func SMP() CostModel {
	return CostModel{
		Name:           "smp",
		SendOverhead:   4 * time.Microsecond,
		RecvOverhead:   4 * time.Microsecond,
		Latency:        20 * time.Microsecond,
		BytesPerSecond: 50e6,
		BarrierBase:    10 * time.Microsecond,
		BarrierPerProc: 4 * time.Microsecond,
	}
}

// DMP models the paper's Intel Paragon: a distributed-memory machine with
// much higher per-message latency and lower sustained bandwidth (NX/MPI on
// the Paragon mesh), but more nodes.
func DMP() CostModel {
	return CostModel{
		Name:           "dmp",
		SendOverhead:   40 * time.Microsecond,
		RecvOverhead:   40 * time.Microsecond,
		Latency:        150 * time.Microsecond,
		BytesPerSecond: 15e6,
		BarrierBase:    100 * time.Microsecond,
		BarrierPerProc: 40 * time.Microsecond,
	}
}

// frameOverhead approximates the fixed per-message framing of the wire
// format (length prefix, source, tag) for the Virtual engine's pricing.
// It is charged exactly once per message.
const frameOverhead = 16

// elemHeader is the flat codec's u32 type id plus u32 length prefix of an
// interface value: a frame's payload carries one, and the flat batch
// encodings price their elements with none.
const elemHeader = 8

// unpricedSize is what a message whose payload has no flat price costs.
const unpricedSize = 64

// payloadSize measures the wire size of one message: the fixed message
// framing plus the payload's body size.
func payloadSize(v any) int {
	return frameOverhead + elemSize(v)
}

// elemSize prices a payload's body flat: Payload implementations by
// their WireSize, the builtin shapes the collectives send at fixed
// widths. Any other payload (which would fail to encode on the TCP
// engine) is priced at a fixed small size rather than failing — the
// Virtual engine should never alter program behaviour.
func elemSize(v any) int {
	switch p := v.(type) {
	case Payload:
		return p.WireSize()
	case []int32:
		return 4 * len(p)
	case int:
		return 8
	case bool:
		return 1
	}
	return unpricedSize - frameOverhead
}

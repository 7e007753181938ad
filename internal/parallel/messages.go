package parallel

//go:generate go run parroute/cmd/mpgen

import (
	"parroute/internal/circuit"
	"parroute/internal/metrics"
)

// Message tags. Every protocol phase uses its own tag so streams between
// the same pair of ranks cannot interleave.
const (
	tagFakePins = iota + 100
	tagCrossings
	tagFtNodes
	tagNetNodes
	tagWires
	tagSummary
	tagBoundaryLo
	tagBoundaryHi
	tagGridSync
	tagOccSync
	tagWidths
	tagWiresRedist
	tagCoarseVote
	tagSwitchVote
)

// The payload types below carry the //mp:payload directive: cmd/mpgen
// derives their flat codecs, WireSize pricing and registration (see
// mp.Payload) into mpwire_gen.go, and records their field layout
// in mp_protocol.json for the `mpgen -check` drift gate. After changing
// any of them, run `go generate ./...` and commit the regenerated files.

// FakePinSpec asks a block worker to add a fake pin for a net at a
// partition boundary: the crossing point of a Steiner segment (paper §4,
// Figure 2). Its fields are int32 like the pin it becomes (16 B).
type FakePinSpec struct {
	Net  int32
	X    int32
	Row  int32
	Side circuit.Side
}

// FakePinBatch is the slice form FakePinSpecs travel in. The named type
// carries the generated WireSize fast path (see mp.Payload) so the Virtual
// engine prices sync rounds without encoding each batch.
//
//mp:payload
type FakePinBatch []FakePinSpec

// CrossingMsg tells a row owner that a segment of Net crosses Row at
// column X and needs a feedthrough there (net-wise algorithm, step 3).
type CrossingMsg struct {
	Net int32
	X   int32
	Row int32
}

// CrossingBatch is the slice form CrossingMsgs travel in; see FakePinBatch.
//
//mp:payload
type CrossingBatch []CrossingMsg

// NodeMsg contributes a connection node (a real pin or an assigned
// feedthrough, with authoritative post-insertion coordinates) of Net to
// the net's owner for whole-net connection.
type NodeMsg struct {
	Net  int32
	X    int32
	Row  int32
	Side circuit.Side
}

// NodeBatch is the slice form NodeMsgs travel in; see FakePinBatch.
//
//mp:payload
type NodeBatch []NodeMsg

// WireBatch carries final wires from a worker to rank 0 (or between
// workers when redistributing by channel owner).
//
//mp:payload
type WireBatch struct {
	Wires []metrics.Wire
}

// Summary carries a worker's counters to rank 0 for the merged result.
//
//mp:payload
type Summary struct {
	Rank         int
	InsertedFts  int
	ForcedEdges  int
	SwitchableWs int
	SwitchFlips  int
	CoarseFlips  int
	CoreWidth    int // the post-insertion core width every rank agreed on
	// Phases records the worker's wall time per pipeline phase (compute
	// only; communication waits excluded under the Virtual engine).
	Phases []metrics.Phase
}

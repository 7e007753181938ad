package parallel

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

// The payload types below cross the mesh through the codecs and wire ids
// in codec.go. A field edited here is a codec and a testdata/wire golden
// edited there.

// FakePinSpec asks a block worker to add a fake pin for a net at a
// partition boundary: the crossing point of a Steiner segment (paper §4,
// Figure 2). Its fields are int32 like the pin it becomes (16 B).
type FakePinSpec struct {
	Net  int32
	X    int32
	Row  int32
	Side circuit.Side
}

// FakePinBatch is the slice form FakePinSpecs travel in: the named type
// carries their record codec.
type FakePinBatch []FakePinSpec

// CrossingMsg tells a row owner that a segment of Net crosses Row at
// column X and needs a feedthrough there (net-wise algorithm, step 3).
type CrossingMsg struct {
	Net int32
	X   int32
	Row int32
}

// CrossingBatch is the slice form CrossingMsgs travel in; see FakePinBatch.
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
type NodeBatch []NodeMsg

// WireBatch carries final wires from a worker to rank 0 (or between
// workers when redistributing by channel owner).
type WireBatch struct {
	Wires []metrics.Wire
}

// Summary carries a worker's counters to rank 0 for the merged result.
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

// Package manifestdrift exercises every manifest cross-check of the
// mpproto analyzer family against a deliberately stale local
// mp_protocol.json:
//
//   - MissingBatch is marked //mp:payload but absent from the manifest.
//   - BadMsg is marked but has no flat wire layout (map field).
//   - The manifest's GhostBatch entry names a type this package no
//     longer declares.
//   - tagDrift's declared value disagrees with the manifest's record.
//   - tagMissing is declared but absent from the manifest's tag table.
//   - SendPaired sends []int32 under tagPaired, whose manifest entry
//     records a different payload set.
//   - SendUnpriced hands the unmarked UnpricedMsg to Send, so the
//     payload is not priced by any manifest entry.
//   - RegisterCodecs registers DriftBatch under a wire id that disagrees
//     with the manifest's record, and a codec for UnpricedMsg, which the
//     manifest does not record at all (both carry stub mp.Payload
//     methods so the registrations type-check).
//
// Every tag is paired with a receive so only the manifest checks fire
// under tag-discipline and send-recv-pairing.
package manifestdrift

import "parroute/internal/mp"

// MissingBatch is priced by no manifest entry: it was marked after the
// last regeneration.
//
//mp:payload
type MissingBatch []int32

// BadMsg cannot be priced flat at all: maps have no canonical wire
// order.
//
//mp:payload
type BadMsg struct {
	M map[int32]int32
}

// UnpricedMsg is sent over mp below but carries no //mp:payload marker,
// so the manifest has no layout for it.
type UnpricedMsg struct {
	N int
}

func (UnpricedMsg) WireSize() int                        { return 0 }
func (UnpricedMsg) AppendWire(b []byte) ([]byte, error)  { return b, nil }
func (*UnpricedMsg) DecodeWire(d []byte) ([]byte, error) { return d, nil }

// DriftBatch matches its manifest layout, but the registration below
// uses a different wire id than the manifest records.
//
//mp:payload
type DriftBatch []int32

func (DriftBatch) WireSize() int                        { return 0 }
func (DriftBatch) AppendWire(b []byte) ([]byte, error)  { return b, nil }
func (*DriftBatch) DecodeWire(d []byte) ([]byte, error) { return d, nil }

// RegisterCodecs stands in for a generated init: the first registration's
// id drifted from the manifest's wireId record, the second registers a
// codec for a type the manifest has never seen.
func RegisterCodecs() {
	mp.Register[DriftBatch](7)
	mp.Register[UnpricedMsg](8)
}

const (
	// tagDrift's value was bumped after the last regeneration; the
	// manifest still records 12.
	tagDrift = 11
	// tagMissing postdates the manifest entirely.
	tagMissing = 5
	// tagPaired matches the manifest's value, but its recorded payload
	// set does not include []int32.
	tagPaired = 9
)

// SendUnpriced sends a payload type the manifest does not price.
func SendUnpriced(c mp.Comm, to int) error {
	return c.Send(to, tagDrift, UnpricedMsg{N: 1})
}

// SendMissing keeps tagMissing's send-site set non-empty; the `any`
// payload has no static identity, so no payload check fires here.
func SendMissing(c mp.Comm, to int, v any) error {
	return c.Send(to, tagMissing, v)
}

// SendPaired sends a payload outside tagPaired's recorded payload set.
func SendPaired(c mp.Comm, to int) error {
	return c.Send(to, tagPaired, []int32{1, 2, 3})
}

// DrainAll pairs every tag with a receive so the orphan-tag check stays
// quiet.
func DrainAll(c mp.Comm, from int) error {
	if _, err := c.Recv(from, tagDrift); err != nil {
		return err
	}
	if _, err := c.Recv(from, tagMissing); err != nil {
		return err
	}
	_, err := c.Recv(from, tagPaired)
	return err
}

// Keep keeps the marked types referenced.
func Keep(b MissingBatch, m BadMsg, d DriftBatch) int { return len(b) + len(m.M) + len(d) }

// Code generated by mpgen from the //mp:payload types of this package; DO NOT EDIT.
//
// Flat parroute-mpwire/1 codecs, pricing, and registration (mp.Payload) for the mp
// message set, kept in lockstep with mp_protocol.json. Regenerate with
// `go generate ./...` (or `go run parroute/cmd/mpgen`); `mpgen -check`
// gates CI against stale output.

package mp

func init() {
	// The protocol fingerprint the TCP rendezvous hello verifies:
	// the FNV-1a/64 hash of the generated mp_protocol.json bytes.
	WireProtocolChecksum = 0x31139bd921c55d0d
}

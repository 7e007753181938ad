// Package mpproto defines the machine-readable protocol manifest cmd/mpgen
// derives from the payload structs, and the one reading of internal/mp's
// surface (ops.go) that mpgen's scanner and internal/lint's protocol
// analyzers share. The manifest is the single source of truth for the mp
// message set: every payload type with its flat wire layout, every named
// protocol tag with its value and statically visible payload types, and
// the collective operations the protocols use. `mpgen -check` holds the
// committed copy to the source byte for byte. A future multi-host DMP
// negotiates exactly this document at handshake, so the encoding is
// canonical: one byte sequence per manifest value.
package mpproto

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// SchemaVersion identifies the manifest format. Bump only with a
// migration note in DESIGN.md §11.
const SchemaVersion = "parroute-mpproto/1"

// ManifestName is the file name the manifest is stored under at the module
// root.
const ManifestName = "mp_protocol.json"

// Manifest is the protocol contract: types × fields × tags × collectives.
type Manifest struct {
	Schema string `json:"schema"`
	Module string `json:"module"`
	// Packages lists the import paths the manifest covers: every package
	// that declares a payload type or a protocol tag.
	Packages    []string          `json:"packages"`
	Types       []TypeEntry       `json:"types"`
	Tags        []TagEntry        `json:"tags"`
	Collectives []CollectiveEntry `json:"collectives"`
}

// TypeEntry describes one payload type's wire identity and flat layout.
type TypeEntry struct {
	// Name is the declared type name, or the builtin spelling ("[]int32")
	// for the shapes internal/mp encodes and prices by hand.
	Name    string `json:"name"`
	Package string `json:"package,omitempty"`
	// Kind is "slice" (a named batch type), "struct", or "builtin".
	Kind string `json:"kind"`
	// WireID is the type's identifier in the length-prefixed binary
	// codec's interface encoding. Every entry has one: the builtins hold
	// the reserved ids below FirstPayloadWireID, and 0 is never valid.
	WireID uint32 `json:"wireId,omitempty"`
	// Elem is the element type of a slice kind, fully qualified.
	Elem string `json:"elem,omitempty"`
	// FlatWidth is the flat price in bytes: per element for slice kinds,
	// for the whole value (variable-length fields estimated at
	// FlatEstimate bytes) for struct kinds.
	FlatWidth int `json:"flatWidth"`
	// Fields is the field layout: of the element struct for slice kinds,
	// of the struct itself otherwise.
	Fields []FieldEntry `json:"fields,omitempty"`
}

// FieldEntry is one struct field's contribution to the wire layout.
type FieldEntry struct {
	Name string `json:"name"`
	// Type is the field's Go type, fully qualified.
	Type string `json:"type"`
	// Kind is "fixed", "string", "slice", or "struct".
	Kind string `json:"kind"`
	// Width is the field's flat price in bytes: the scalar width for
	// fixed kinds, the recursive flat width for structs, and the
	// FlatEstimate placeholder for variable-length kinds.
	Width int `json:"width"`
	// Elem and ElemWidth describe a slice field's element type.
	Elem      string `json:"elem,omitempty"`
	ElemWidth int    `json:"elemWidth,omitempty"`
	// Fields is the nested layout of a struct field or of a slice
	// field's struct element.
	Fields []FieldEntry `json:"fields,omitempty"`
}

// TagEntry is one named protocol tag constant.
type TagEntry struct {
	Name    string `json:"name"`
	Package string `json:"package"`
	Value   int    `json:"value"`
	// Reserved marks engine-owned tags (the negative range).
	Reserved bool `json:"reserved,omitempty"`
	// Payloads lists the payload types statically visible at the tag's
	// send and collective sites, fully qualified and sorted.
	Payloads []string `json:"payloads,omitempty"`
}

// CollectiveEntry records one mp collective the protocols call.
type CollectiveEntry struct {
	Name string `json:"name"`
	// Sites is the number of static call sites across the covered
	// packages.
	Sites int `json:"sites"`
}

// Encode renders the manifest in its canonical byte form: two-space
// indented JSON with a trailing newline. Equal manifests encode to equal
// bytes; the drift gate compares these bytes directly.
func (m *Manifest) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, fmt.Errorf("mpproto: encode manifest: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode parses a manifest and verifies its schema version.
func Decode(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("mpproto: parse manifest: %w", err)
	}
	if m.Schema != SchemaVersion {
		return nil, fmt.Errorf("mpproto: manifest schema %q, want %q", m.Schema, SchemaVersion)
	}
	return &m, nil
}

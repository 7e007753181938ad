// Package mpproto defines the machine-readable protocol manifest shared
// by cmd/mpgen (which derives it from the payload structs) and
// internal/lint's manifest-aware analyzers (which enforce that code and
// manifest never drift apart). The manifest is the single source of truth
// for the mp message set: every payload type with its flat wire layout,
// every named protocol tag with its value and statically visible payload
// types, and the collective operations the protocols use. A future
// multi-host DMP negotiates exactly this document at handshake, so the
// encoding is canonical: one byte sequence per manifest value.
package mpproto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion identifies the manifest format. Bump only with a
// migration note in DESIGN.md §11.
const SchemaVersion = "parroute-mpproto/1"

// ManifestName is the file name the manifest is stored under, both at the
// module root (the real protocol) and inside lint fixture packages.
const ManifestName = "mp_protocol.json"

// Manifest is the protocol contract: types × fields × tags × collectives.
type Manifest struct {
	Schema string `json:"schema"`
	Module string `json:"module"`
	// Packages lists the import paths the manifest covers; the lint
	// analyzers apply manifest checks only to these packages.
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
	// Kind is "fixed", "string", "slice", "struct", or "interface".
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

// Collective is the call signature of one package-level collective of
// internal/mp: where its tag and its payload sit in the argument list.
type Collective struct{ TagArg, PayloadArg int }

// Collectives is the signature table of internal/mp's collectives, by
// function name — the one copy mpgen's scanner and the lint analyzers both
// read. Comm's methods are not in it: Send is (to, tag, payload), Recv
// (from, tag), and Barrier takes nothing.
var Collectives = map[string]Collective{
	"Gather":          {TagArg: 2, PayloadArg: 3},
	"Allgather":       {TagArg: 1, PayloadArg: 2},
	"AllreduceInt32s": {TagArg: 1, PayloadArg: 2},
	"AllreduceInt":    {TagArg: 1, PayloadArg: 2},
	"Alltoall":        {TagArg: 1, PayloadArg: 2},
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

// Load reads and decodes the manifest at path.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mpproto: %w", err)
	}
	return Decode(data)
}

// TypeByName returns the entry for a (package, name) pair, or nil.
func (m *Manifest) TypeByName(pkg, name string) *TypeEntry {
	for i := range m.Types {
		if m.Types[i].Name == name && m.Types[i].Package == pkg {
			return &m.Types[i]
		}
	}
	return nil
}

// TagByName returns the entry for a (package, name) pair, or nil.
func (m *Manifest) TagByName(pkg, name string) *TagEntry {
	for i := range m.Tags {
		if m.Tags[i].Name == name && m.Tags[i].Package == pkg {
			return &m.Tags[i]
		}
	}
	return nil
}

// Covers reports whether the manifest's checks apply to the package.
func (m *Manifest) Covers(pkgPath string) bool {
	for _, p := range m.Packages {
		if p == pkgPath {
			return true
		}
	}
	return false
}

package mpproto

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Flat pricing rules. The widths reproduce the hand-written PR-4 batch
// pricing byte for byte (FakePinBatch 25/element, WireBatch 73/element,
// Summary 6*8 + 16/row + 24/phase, …): fixed-width scalars price at
// their encoded width, nested structs flatten recursively, and
// variable-length fields (strings, slices nested inside a priced element)
// price at the FlatEstimate placeholder — the size of the length-prefixed
// codec's per-element header (a u32 count plus a u32 length hint).
// Interface fields have no wire form: a payload holds concrete values.
const FlatEstimate = 8

// Field kinds.
const (
	KindFixed  = "fixed"
	KindString = "string"
	KindSlice  = "slice"
	KindStruct = "struct"
)

// Type kinds.
const (
	TypeSlice   = "slice"
	TypeStruct  = "struct"
	TypeBuiltin = "builtin"
)

// FirstPayloadWireID is the first wire id mpgen assigns to a //mp:payload
// type; the ids below it are reserved for BuiltinTypes.
const FirstPayloadWireID = 5

// BuiltinTypes are the payload shapes internal/mp encodes and prices by
// hand — what the collectives relay — under their reserved wire ids.
func BuiltinTypes() []TypeEntry {
	return []TypeEntry{
		{Name: "[]int32", Kind: TypeBuiltin, WireID: 2, Elem: "int32", FlatWidth: 4},
		{Name: "bool", Kind: TypeBuiltin, WireID: 3, FlatWidth: 1},
		{Name: "int", Kind: TypeBuiltin, WireID: 4, FlatWidth: 8},
	}
}

// PayloadMarker is the doc-comment directive that opts a type into
// codec/manifest generation: a line reading exactly "//mp:payload".
const PayloadMarker = "mp:payload"

// HasPayloadMarker reports whether a declaration's doc comment carries
// the //mp:payload directive.
func HasPayloadMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == PayloadMarker {
			return true
		}
	}
	return false
}

// qualify renders t fully qualified ("parroute/internal/metrics.Wire").
func qualify(t types.Type) string {
	return types.TypeString(t, nil)
}

// BasicWidth returns the encoded width of a basic (or basic-underlying)
// type, or 0 if the kind is not a fixed-width scalar.
func BasicWidth(b *types.Basic) int {
	switch b.Kind() {
	case types.Bool, types.Int8, types.Uint8:
		return 1
	case types.Int16, types.Uint16:
		return 2
	case types.Int32, types.Uint32, types.Float32:
		return 4
	case types.Int, types.Uint, types.Int64, types.Uint64, types.Uintptr, types.Float64:
		return 8
	}
	return 0
}

// FlatWidth prices t fully flattened: scalars at their width, structs
// recursively, strings/slices at FlatEstimate.
func FlatWidth(t types.Type) (int, error) {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.String {
			return FlatEstimate, nil
		}
		if w := BasicWidth(u); w > 0 {
			return w, nil
		}
		return 0, fmt.Errorf("mpproto: unsupported basic type %s", qualify(t))
	case *types.Slice:
		return FlatEstimate, nil
	case *types.Struct:
		n := 0
		for i := 0; i < u.NumFields(); i++ {
			w, err := FlatWidth(u.Field(i).Type())
			if err != nil {
				return 0, fmt.Errorf("field %s: %w", u.Field(i).Name(), err)
			}
			n += w
		}
		return n, nil
	}
	return 0, fmt.Errorf("mpproto: unsupported type %s (interfaces, maps, pointers, chans and funcs cannot cross the wire)", qualify(t))
}

// FieldsOf derives the wire layout of a struct type.
func FieldsOf(s *types.Struct) ([]FieldEntry, error) {
	var out []FieldEntry
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		fe, err := fieldOf(f.Name(), f.Type())
		if err != nil {
			return nil, fmt.Errorf("field %s: %w", f.Name(), err)
		}
		out = append(out, fe)
	}
	return out, nil
}

func fieldOf(name string, t types.Type) (FieldEntry, error) {
	fe := FieldEntry{Name: name, Type: qualify(t)}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.String {
			fe.Kind, fe.Width = KindString, FlatEstimate
			return fe, nil
		}
		if w := BasicWidth(u); w > 0 {
			fe.Kind, fe.Width = KindFixed, w
			return fe, nil
		}
		return fe, fmt.Errorf("mpproto: unsupported basic type %s", qualify(t))
	case *types.Slice:
		fe.Kind, fe.Width = KindSlice, FlatEstimate
		fe.Elem = qualify(u.Elem())
		w, err := FlatWidth(u.Elem())
		if err != nil {
			return fe, err
		}
		fe.ElemWidth = w
		if es, ok := u.Elem().Underlying().(*types.Struct); ok {
			fields, err := FieldsOf(es)
			if err != nil {
				return fe, err
			}
			fe.Fields = fields
		}
		return fe, nil
	case *types.Struct:
		fe.Kind = KindStruct
		w, err := FlatWidth(t)
		if err != nil {
			return fe, err
		}
		fe.Width = w
		fields, err := FieldsOf(u)
		if err != nil {
			return fe, err
		}
		fe.Fields = fields
		return fe, nil
	}
	return fe, fmt.Errorf("mpproto: unsupported field type %s", qualify(t))
}

// TypeEntryFor derives the manifest entry of a marked payload type: a
// named slice becomes a "slice" entry priced per element, a struct a
// "struct" entry priced over its fields.
func TypeEntryFor(name, pkgPath string, t types.Type) (TypeEntry, error) {
	te := TypeEntry{Name: name, Package: pkgPath}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		te.Kind = TypeSlice
		te.Elem = qualify(u.Elem())
		w, err := FlatWidth(u.Elem())
		if err != nil {
			return te, fmt.Errorf("mpproto: %s: %w", name, err)
		}
		te.FlatWidth = w
		if es, ok := u.Elem().Underlying().(*types.Struct); ok {
			fields, err := FieldsOf(es)
			if err != nil {
				return te, fmt.Errorf("mpproto: %s: %w", name, err)
			}
			te.Fields = fields
		}
		return te, nil
	case *types.Struct:
		te.Kind = TypeStruct
		w, err := FlatWidth(t)
		if err != nil {
			return te, fmt.Errorf("mpproto: %s: %w", name, err)
		}
		te.FlatWidth = w
		fields, err := FieldsOf(u)
		if err != nil {
			return te, fmt.Errorf("mpproto: %s: %w", name, err)
		}
		te.Fields = fields
		return te, nil
	}
	return te, fmt.Errorf("mpproto: %s: payload types must be structs or slices, not %s", name, qualify(t))
}

package mpproto

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// checkSrc type-checks a single-file package and returns its scope.
func checkSrc(t *testing.T, src string) *types.Package {
	t.Helper()
	pkg, _, _ := checkSrcAt(t, "p", src)
	return pkg
}

// checkSrcAt is checkSrc under a chosen import path, with the syntax tree
// and the type information kept.
func checkSrcAt(t *testing.T, path, src string) (*types.Package, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, f, info
}

const layoutSrc = `package p

import "time"

type Side uint8

type Spec struct {
	Net  int
	X    int
	Row  int
	Side Side
}

type Batch []Spec

type Counter struct {
	Name  string
	Value int64
}

type Phase struct {
	Name     string
	Elapsed  time.Duration
	Counters []Counter
}

type Summary struct {
	Rank   int
	Phases []Phase
}

type Bad struct {
	M map[int]int
}
`

func lookup(t *testing.T, pkg *types.Package, name string) types.Type {
	t.Helper()
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("type %s not found", name)
	}
	return obj.Type()
}

// TestFlatWidthRules pins the pricing rules to the PR-4 hand-written
// numbers: fixed scalars at their width, flattened structs recursively,
// strings/slices at the FlatEstimate placeholder.
func TestFlatWidthRules(t *testing.T) {
	pkg := checkSrc(t, layoutSrc)
	cases := []struct {
		typ  string
		want int
	}{
		{"Spec", 25},    // 3 ints + 1 byte side
		{"Counter", 16}, // string(8) + int64(8)
		{"Phase", 24},   // string(8) + duration(8) + slice(8)
		{"Summary", 16}, // int(8) + slice(8)
	}
	for _, tc := range cases {
		got, err := FlatWidth(lookup(t, pkg, tc.typ))
		if err != nil {
			t.Fatalf("FlatWidth(%s): %v", tc.typ, err)
		}
		if got != tc.want {
			t.Errorf("FlatWidth(%s) = %d, want %d", tc.typ, got, tc.want)
		}
	}
	if _, err := FlatWidth(lookup(t, pkg, "Bad")); err == nil {
		t.Error("FlatWidth accepted a struct with a map field")
	}
}

// TestTypeEntryFor covers both payload shapes: a named batch slice priced
// per element and a struct with a nested variable-length tail.
func TestTypeEntryFor(t *testing.T) {
	pkg := checkSrc(t, layoutSrc)

	batch, err := TypeEntryFor("Batch", "p", lookup(t, pkg, "Batch"))
	if err != nil {
		t.Fatal(err)
	}
	if batch.Kind != TypeSlice || batch.Elem != "p.Spec" || batch.FlatWidth != 25 {
		t.Errorf("Batch entry = %+v, want slice of p.Spec at 25/element", batch)
	}
	if len(batch.Fields) != 4 || batch.Fields[3].Name != "Side" || batch.Fields[3].Width != 1 {
		t.Errorf("Batch element fields = %+v", batch.Fields)
	}

	sum, err := TypeEntryFor("Summary", "p", lookup(t, pkg, "Summary"))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Kind != TypeStruct || sum.FlatWidth != 16 {
		t.Errorf("Summary entry = %+v", sum)
	}
	phases := sum.Fields[1]
	if phases.Kind != KindSlice || phases.ElemWidth != 24 || len(phases.Fields) != 3 {
		t.Errorf("Summary.Phases layout = %+v, want slice of 24-byte Phase with 3 fields", phases)
	}

	if _, err := TypeEntryFor("Bad", "p", lookup(t, pkg, "Bad")); err == nil {
		t.Error("TypeEntryFor accepted a struct with a map field")
	}
}

// TestManifestRoundTrip pins the canonical encoding: decode(encode(m))
// re-encodes to identical bytes, and the schema version is enforced.
func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Schema:   SchemaVersion,
		Module:   "parroute",
		Packages: []string{"parroute/internal/parallel"},
		Types: []TypeEntry{{
			Name: "Batch", Package: "parroute/internal/parallel", Kind: TypeSlice,
			WireID: 1, Elem: "p.Spec", FlatWidth: 25,
			Fields: []FieldEntry{{Name: "Net", Type: "int", Kind: KindFixed, Width: 8}},
		}},
		Tags:        []TagEntry{{Name: "tagWires", Package: "parroute/internal/parallel", Value: 104, Payloads: []string{"parroute/internal/parallel.WireBatch"}}},
		Collectives: []CollectiveEntry{{Name: "Gather", Sites: 2}},
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Errorf("canonical encoding not stable:\n%s\nvs\n%s", data, again)
	}
	if _, err := Decode([]byte(`{"schema":"parroute-mpproto/999"}`)); err == nil {
		t.Error("Decode accepted a wrong schema version")
	}
}

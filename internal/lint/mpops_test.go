package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// opsSrc is a miniature internal/mp that calls its own surface, so one
// type-checked file holds both the declarations Classify reads and the call
// sites it classifies.
const opsSrc = `package mp

type Comm interface {
	Rank() int
	Send(to, tag int, v any) error
	Recv(from, tag int) (any, error)
	Barrier() error
}

const tagA = 7

func Gather(c Comm, root, tag int, v any) ([]any, error) { return nil, nil }
func Scatter(c Comm, tag int, vs []any) (any, error)     { return nil, nil }
func Exchange[T any](c Comm, tag int, vs []T) ([]T, error) { return nil, nil }
func Poll(c Comm, tag int) bool                          { return false }
func Helper(c Comm, n int) int                           { return n }
func relay(c Comm, tag int, v any) error                 { return nil }
func Tagless(tag int, v any)                             {}

func use(c Comm) {
	c.Send(1, tagA, "s")
	c.Recv(1, tagA)
	c.Barrier()
	c.Rank()
	Gather(c, 0, tagA, "g")
	Scatter(c, tagA, nil)
	vs := []int{1}
	Exchange(c, tagA, vs)
	Poll(c, tagA)
	Helper(c, tagA)
	relay(c, tagA, nil)
	Tagless(tagA, nil)
}
`

// checkSrcAt type-checks a single-file package under import path path and
// returns its syntax tree and use information.
func checkSrcAt(t *testing.T, path, src string) (*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check(path, fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return f, info
}

// TestClassifyReadsSignatures pins the classifier: the three Comm methods
// by name, and the collectives by signature — an exported function taking
// Comm first and an int named tag, wherever the tag sits — so a collective
// added to internal/mp is recognised with no table to extend, and a helper
// that only looks similar is not.
func TestClassifyReadsSignatures(t *testing.T) {
	f, info := checkSrcAt(t, "m/internal/mp", opsSrc)
	type shape struct {
		sides tagSide
		tag   string
	}
	want := map[string]shape{
		"Send":     {sideSend, "tagA"},
		"Recv":     {sideRecv, "tagA"},
		"Barrier":  {0, ""},
		"Gather":   {sideSend | sideRecv, "tagA"},
		"Scatter":  {sideSend | sideRecv, "tagA"},
		"Exchange": {sideSend | sideRecv, "tagA"},
		"Poll":     {sideSend | sideRecv, "tagA"},
	}
	got := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op := classify(info, call)
		if op == nil {
			return true
		}
		got[op.Name] = true
		s := shape{sides: op.Sides}
		if id, ok := op.Tag(call).(*ast.Ident); ok {
			s.tag = id.Name
		}
		if s != want[op.Name] {
			t.Errorf("%s classified as %+v, want %+v", op.Name, s, want[op.Name])
		}
		if tag := op.Tag(call); tag != nil {
			if c := namedConst(info, tag); c == nil || c.Name() != "tagA" {
				t.Errorf("%s: tag argument resolved to %v, want tagA", op.Name, c)
			} else if v, ok := tagValue(c); !ok || v != 7 {
				t.Errorf("tagValue(tagA) = %d, %v", v, ok)
			}
		}
		return true
	})
	for name := range want {
		if !got[name] {
			t.Errorf("%s not classified", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("classified %v, want exactly the %d operations", got, len(want))
	}
	if !isMP("m/internal/mp") || isMP("m/internal/mpx") {
		t.Error("isMP disagrees about the package path")
	}
}

package mpproto

import (
	"go/ast"
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

// TestClassifyReadsSignatures pins the classifier: the three Comm methods
// by name, and the collectives by signature — an exported function taking
// Comm first and an int named tag, wherever the tag sits, with or without
// a payload after it, per rank when that is a []T of a type parameter T —
// so a collective added to internal/mp is recognised with no table to
// extend, and a helper that only looks similar is not.
func TestClassifyReadsSignatures(t *testing.T) {
	_, f, info := checkSrcAt(t, "m/internal/mp", opsSrc)
	type shape struct {
		collective, perRank bool
		sides               Side
		tag, payload        string
	}
	want := map[string]shape{
		"Send":     {false, false, SideSend, "tagA", `"s"`},
		"Recv":     {false, false, SideRecv, "tagA", ""},
		"Barrier":  {true, false, 0, "", ""},
		"Gather":   {true, false, SideSend | SideRecv, "tagA", `"g"`},
		"Scatter":  {true, false, SideSend | SideRecv, "tagA", "nil"},
		"Exchange": {true, true, SideSend | SideRecv, "tagA", "vs"},
		"Poll":     {true, false, SideSend | SideRecv, "tagA", ""},
	}
	text := func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.BasicLit:
			return e.Value
		}
		return ""
	}
	got := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op := Classify(info, call)
		if op == nil {
			return true
		}
		got[op.Name] = true
		s := shape{op.Collective, op.PerRank, op.Sides, text(op.Tag(call)), text(op.Payload(call))}
		if s != want[op.Name] {
			t.Errorf("%s classified as %+v, want %+v", op.Name, s, want[op.Name])
		}
		if tag := op.Tag(call); tag != nil {
			if c := NamedConst(info, tag); c == nil || c.Name() != "tagA" {
				t.Errorf("%s: tag argument resolved to %v, want tagA", op.Name, c)
			} else if v, ok := TagValue(c); !ok || v != 7 {
				t.Errorf("TagValue(tagA) = %d, %v", v, ok)
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
	if !IsMP("m/internal/mp") || IsMP("m/internal/mpproto") || MPPath("m") != "m/internal/mp" {
		t.Error("IsMP/MPPath disagree about the package path")
	}
}

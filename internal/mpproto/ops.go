package mpproto

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// The one reading of internal/mp's surface from type-checked source: what
// is a protocol operation, where its tag and payload sit, what is a
// tag constant. mpgen's scanner and the lint analyzers both call this, so
// the manifest and the rules cannot disagree about what a call is.

// mpSuffix is the message-passing package's import path below its module.
const mpSuffix = "/internal/mp"

// MPPath returns the import path of module's message-passing package.
func MPPath(module string) string { return module + mpSuffix }

// IsMP reports whether pkgPath is a module's message-passing package.
func IsMP(pkgPath string) bool { return strings.HasSuffix(pkgPath, mpSuffix) }

// Side is a bitmask of the directions a tag's messages flow at one call.
type Side uint8

const (
	SideSend Side = 1 << iota
	SideRecv
)

// Op describes one protocol operation of internal/mp.
type Op struct {
	Name string
	// Collective marks the operations every rank must execute congruently:
	// the package-level collectives and Barrier. Send and Recv are point to
	// point.
	Collective bool
	// PerRank marks a collective whose payload, a generic []T, holds one
	// value per rank: what crosses the wire under its tag is the element.
	PerRank bool
	Sides   Side
	// Argument indices, -1 when the operation has no tag (Barrier) or sends
	// no payload (Recv, Barrier).
	tag, payload int
}

// Tag and Payload return call's argument in that role, or nil when the
// operation has none.
func (op *Op) Tag(call *ast.CallExpr) ast.Expr     { return arg(call, op.tag) }
func (op *Op) Payload(call *ast.CallExpr) ast.Expr { return arg(call, op.payload) }

func arg(call *ast.CallExpr, i int) ast.Expr {
	if i < 0 || i >= len(call.Args) {
		return nil
	}
	return call.Args[i]
}

// Callee resolves the called function or method of call, if it is a
// statically known *types.Func (package function, method, or interface
// method). Conversions and builtins return nil.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ast.Unparen(ix.X) // explicit instantiation: f[T](...)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// mpCallee is Callee restricted to functions and methods of internal/mp.
func mpCallee(info *types.Info, call *ast.CallExpr) (*types.Func, *types.Signature) {
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil || !IsMP(fn.Pkg().Path()) {
		return nil, nil
	}
	return fn, fn.Type().(*types.Signature)
}

// Classify resolves call to a protocol operation of internal/mp: a Comm
// method (Send, Recv, Barrier) or a package-level collective. It returns
// nil for everything else.
//
// A collective is read off its signature, so a new one needs no table
// entry: an exported function whose first parameter is Comm and which has
// an int parameter named tag; the payload is the parameter after the tag,
// per rank when its type is []T for a type parameter T.
// Every collective both sends and receives under its tag on some rank, so
// a call site counts for both directions.
func Classify(info *types.Info, call *ast.CallExpr) *Op {
	fn, sig := mpCallee(info, call)
	if fn == nil {
		return nil
	}
	if sig.Recv() != nil {
		switch fn.Name() {
		case "Send":
			return &Op{Name: "Send", Sides: SideSend, tag: 1, payload: 2}
		case "Recv":
			return &Op{Name: "Recv", Sides: SideRecv, tag: 1, payload: -1}
		case "Barrier":
			return &Op{Name: "Barrier", Collective: true, tag: -1, payload: -1}
		}
		return nil
	}
	params := sig.Params()
	if !fn.Exported() || params.Len() == 0 || !isComm(fn.Pkg(), params.At(0).Type()) {
		return nil
	}
	for i := 1; i < params.Len(); i++ {
		if p := params.At(i); p.Name() == "tag" && types.Identical(p.Type(), types.Typ[types.Int]) {
			op := &Op{Name: fn.Name(), Collective: true, Sides: SideSend | SideRecv, tag: i, payload: -1}
			if i+1 < params.Len() {
				op.payload = i + 1
				if s, ok := params.At(i + 1).Type().(*types.Slice); ok {
					_, op.PerRank = s.Elem().(*types.TypeParam)
				}
			}
			return op
		}
	}
	return nil
}

// isComm reports whether t is mp's Comm interface.
func isComm(mp *types.Package, t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == mp && named.Obj().Name() == "Comm"
}

// NamedConst resolves e to the declared constant it names (an identifier
// or a pkg.Name selector), or nil.
func NamedConst(info *types.Info, e ast.Expr) *types.Const {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		c, _ := info.Uses[e].(*types.Const)
		return c
	case *ast.SelectorExpr:
		c, _ := info.Uses[e.Sel].(*types.Const)
		return c
	}
	return nil
}

// IsTagName reports whether name follows the protocol tag naming
// convention (the tagFakePins… family).
func IsTagName(name string) bool {
	return strings.HasPrefix(name, "tag") && len(name) > len("tag")
}

// TagValue returns c's value when c is a protocol tag: an integer constant
// (possibly untyped) named by the convention.
func TagValue(c *types.Const) (int, bool) {
	basic, ok := c.Type().Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 || !IsTagName(c.Name()) {
		return 0, false
	}
	v, exact := constant.Int64Val(constant.ToInt(c.Val()))
	return int(v), exact
}

package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// The one reading of internal/mp's surface from type-checked source: what
// is a protocol operation, where its tag sits, what is a tag constant.
// tag-discipline's index and its call-site check both read it, so they
// cannot disagree about what a call is.

// mpSuffix is the message-passing package's import path below its module.
const mpSuffix = "/internal/mp"

// isMP reports whether pkgPath is a module's message-passing package.
func isMP(pkgPath string) bool { return strings.HasSuffix(pkgPath, mpSuffix) }

// tagSide is a bitmask of the directions a tag's messages flow at one call.
type tagSide uint8

const (
	sideSend tagSide = 1 << iota
	sideRecv
)

// mpOp describes one protocol operation of internal/mp.
type mpOp struct {
	Name  string
	Sides tagSide
	// tag is the tag's argument index, -1 when the operation has none
	// (Barrier).
	tag int
}

// Tag returns call's tag argument, or nil when the operation has none.
func (op *mpOp) Tag(call *ast.CallExpr) ast.Expr {
	if op.tag < 0 || op.tag >= len(call.Args) {
		return nil
	}
	return call.Args[op.tag]
}

// callee resolves the called function or method of call, if it is a
// statically known *types.Func (package function, method, or interface
// method). Conversions and builtins return nil.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
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

// classify resolves call to a protocol operation of internal/mp: a Comm
// method (Send, Recv, Barrier) or a package-level collective. It returns
// nil for everything else.
//
// A collective is read off its signature, so a new one needs no table
// entry: an exported function whose first parameter is Comm and which has
// an int parameter named tag. Every collective both sends and receives
// under its tag on some rank, so a call site counts for both directions.
func classify(info *types.Info, call *ast.CallExpr) *mpOp {
	fn := callee(info, call)
	if fn == nil || fn.Pkg() == nil || !isMP(fn.Pkg().Path()) {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		switch fn.Name() {
		case "Send":
			return &mpOp{Name: "Send", Sides: sideSend, tag: 1}
		case "Recv":
			return &mpOp{Name: "Recv", Sides: sideRecv, tag: 1}
		case "Barrier":
			return &mpOp{Name: "Barrier", tag: -1}
		}
		return nil
	}
	params := sig.Params()
	if !fn.Exported() || params.Len() == 0 || !isComm(fn.Pkg(), params.At(0).Type()) {
		return nil
	}
	for i := 1; i < params.Len(); i++ {
		if p := params.At(i); p.Name() == "tag" && types.Identical(p.Type(), types.Typ[types.Int]) {
			return &mpOp{Name: fn.Name(), Sides: sideSend | sideRecv, tag: i}
		}
	}
	return nil
}

// isComm reports whether t is mp's Comm interface.
func isComm(mp *types.Package, t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == mp && named.Obj().Name() == "Comm"
}

// namedConst resolves e to the declared constant it names (an identifier
// or a pkg.Name selector), or nil.
func namedConst(info *types.Info, e ast.Expr) *types.Const {
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

// tagValue returns c's value when c is a protocol tag: an integer constant
// (possibly untyped) named by the convention, tag followed by a name (the
// tagFakePins… family).
func tagValue(c *types.Const) (int, bool) {
	basic, ok := c.Type().Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 || !strings.HasPrefix(c.Name(), "tag") || len(c.Name()) == len("tag") {
		return 0, false
	}
	v, exact := constant.Int64Val(constant.ToInt(c.Val()))
	return int(v), exact
}

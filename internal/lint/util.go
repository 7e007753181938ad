package lint

import (
	"go/ast"
	"go/types"
)

// pkgQualifier resolves e as a package qualifier (the "time" in
// time.Now) and returns its imported path, or "" if e is not one.
func pkgQualifier(info *types.Info, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// isRNGPtr reports whether t is *rng.RNG from this module.
func isRNGPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "parroute/internal/rng" && obj.Name() == "RNG"
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// returnsError reports whether sig's last result satisfies error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return types.Implements(res.At(res.Len()-1).Type(), errorType)
}

// objOf resolves the object an identifier uses or defines.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// stmtLists visits every statement list in the file — block bodies and
// switch/select clause bodies — so siblings of a statement can be
// examined.
func stmtLists(f *ast.File, visit func(stmts []ast.Stmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BlockStmt:
			visit(s.List)
		case *ast.CaseClause:
			visit(s.Body)
		case *ast.CommClause:
			visit(s.Body)
		}
		return true
	})
}

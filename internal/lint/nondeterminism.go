package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// analyzerNondeterminism enforces the repository's reproducibility policy:
//
//   - math/rand (and v2) must never be imported — all randomness flows
//     through internal/rng so streams are seeded and splittable.
//   - time.Now, time.Since, and time.Until are reserved for the observer
//     clock (clockPkg); a wall-clock read anywhere else can leak into a
//     routing decision and break run-to-run reproducibility.
//   - inside the deterministic packages, iterating a map while appending
//     to an outer slice publishes Go's randomized map order into routing
//     state, unless the slice is sorted afterwards in the same statement
//     list; drawing from an rng.RNG inside a map iteration likewise makes
//     stream consumption order depend on map layout.
var analyzerNondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "forbid math/rand, stray wall-clock reads, and map-iteration-order leaks",
	Run:  runNondeterminism,
}

func runNondeterminism(p *Pass) {
	for _, f := range p.Pkg.Files {
		checkForbiddenImports(p, f)
		if p.Pkg.Path != clockPkg {
			checkWallClock(p, f)
		}
		if deterministicScope(p.Pkg.Path) {
			checkMapOrder(p, f)
		}
	}
}

func checkForbiddenImports(p *Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			p.Reportf(imp.Pos(), "import of %s: use parroute/internal/rng so streams are seeded and splittable", path)
		}
	}
}

func checkWallClock(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkgQualifier(p.Pkg.Info, sel.X) != "time" {
			return true
		}
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" || sel.Sel.Name == "Until" {
			p.Reportf(call.Pos(), "time.%s outside the timing allowlist: wall-clock reads must not feed routing decisions", sel.Sel.Name)
		}
		return true
	})
}

// checkMapOrder flags map-range loops that append to a slice declared
// outside the loop without a subsequent sort, and rng draws inside a
// map-range body.
func checkMapOrder(p *Pass, f *ast.File) {
	info := p.Pkg.Info
	stmtLists(f, func(stmts []ast.Stmt) {
		for i, stmt := range stmts {
			rs, ok := stmt.(*ast.RangeStmt)
			if !ok {
				continue
			}
			if _, ok := info.TypeOf(rs.X).Underlying().(*types.Map); !ok {
				continue
			}
			checkMapRangeBody(p, rs, stmts[i+1:])
		}
	})
}

func checkMapRangeBody(p *Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	info := p.Pkg.Info
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				target := appendTarget(info, rhs)
				if target == nil || declaredWithin(target, rs.Body) {
					continue
				}
				if sortedAfter(info, rest, target) {
					continue
				}
				p.Reportf(rhs.Pos(), "append to %s in map-iteration order without a following sort makes its order nondeterministic", target.Name())
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isRNGPtr(info.TypeOf(sel.X)) {
				p.Reportf(n.Pos(), "rng draw inside map iteration: stream consumption order depends on map layout")
			}
		}
		return true
	})
}

// appendTarget returns the variable v when rhs has the shape
// append(v, ...), and nil otherwise.
func appendTarget(info *types.Info, rhs ast.Expr) types.Object {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if _, ok := info.Uses[fn].(*types.Builtin); !ok || fn.Name != "append" {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := objOf(info, id)
	if _, ok := obj.(*types.Var); !ok {
		return nil
	}
	return obj
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// sortedAfter reports whether any statement in rest calls into sort or
// slices with target as an argument — the collect-keys-then-sort idiom
// that restores determinism.
func sortedAfter(info *types.Info, rest []ast.Stmt, target types.Object) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if q := pkgQualifier(info, sel.X); q != "sort" && q != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && objOf(info, id) == target {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

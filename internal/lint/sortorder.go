package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerSortOrder guards the determinism audit of PR 4: inside the
// deterministic packages, a sort.Slice comparator that orders by a single
// key leaves equal-key elements in input-dependent order (sort.Slice is
// explicitly unstable), so the routing result can depend on how the slice
// was assembled. Comparators must break ties down to a unique key (an
// index or ID), or use sort.SliceStable when insertion order is itself the
// intended tie-break.
//
// The one exempt shape is the element-as-key comparator s[i] < s[j]: when
// the whole element is the sort key, equal elements are interchangeable
// and instability cannot show.
var analyzerSortOrder = &Analyzer{
	Name: "sort-order",
	Doc:  "flag single-key sort.Slice comparators whose ties make the order nondeterministic",
	Run:  runSortOrder,
}

func runSortOrder(p *Pass) {
	if !deterministicScope(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Slice" || pkgQualifier(p.Pkg.Info, sel.X) != "sort" {
				return true
			}
			lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit)
			if !ok {
				return true
			}
			if cmp := singleKeyComparison(lit); cmp != nil && !elementAsKey(p, lit, cmp) {
				p.Reportf(cmp.Pos(), "sort.Slice comparator orders by a single key: equal-key elements land in nondeterministic order; add a tie-break (or sort.SliceStable)")
			}
			return true
		})
	}
}

// singleKeyComparison returns the comparator body's lone `a < b` / `a > b`
// expression when the body is exactly one return of one ordered
// comparison, and nil otherwise. Multi-statement bodies are trusted: the
// extra statements are where tie-breaks live.
func singleKeyComparison(lit *ast.FuncLit) *ast.BinaryExpr {
	if len(lit.Body.List) != 1 {
		return nil
	}
	ret, ok := lit.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	bin, ok := ast.Unparen(ret.Results[0]).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.LSS && bin.Op != token.GTR) {
		return nil
	}
	return bin
}

// elementAsKey reports whether cmp has the shape s[i] < s[j]: the same
// slice indexed once by each comparator parameter, so the whole element is
// the key and equal elements are interchangeable.
func elementAsKey(p *Pass, lit *ast.FuncLit, cmp *ast.BinaryExpr) bool {
	var names []*ast.Ident
	for _, f := range lit.Type.Params.List {
		names = append(names, f.Names...)
	}
	if len(names) != 2 {
		return false
	}
	info := p.Pkg.Info
	a, aIdx, okA := indexedIdent(info, cmp.X)
	b, bIdx, okB := indexedIdent(info, cmp.Y)
	if !okA || !okB || a == nil || a != b {
		return false
	}
	i, j := objOf(info, names[0]), objOf(info, names[1])
	if i == nil || j == nil {
		return false
	}
	return (aIdx == i && bIdx == j) || (aIdx == j && bIdx == i)
}

// indexedIdent decomposes expr as ident[ident], returning the type objects
// of the indexed variable and the index.
func indexedIdent(info *types.Info, expr ast.Expr) (base, index types.Object, ok bool) {
	ix, okE := ast.Unparen(expr).(*ast.IndexExpr)
	if !okE {
		return nil, nil, false
	}
	bid, okB := ast.Unparen(ix.X).(*ast.Ident)
	iid, okI := ast.Unparen(ix.Index).(*ast.Ident)
	if !okB || !okI {
		return nil, nil, false
	}
	return objOf(info, bid), objOf(info, iid), true
}

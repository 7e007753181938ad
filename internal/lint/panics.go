package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerPanicInLibrary forbids panic in the internal/... library
// packages: callers of the routing pipeline (cmd binaries, tests, the
// twgrd service) must get errors they can handle, not crashes.
// Documented invariant guards — cases the type system cannot express and
// that indicate a bug in this repository rather than bad input — stay
// allowed via an explicit //lint:allow panic-in-library annotation.
var analyzerPanicInLibrary = &Analyzer{
	Name: "panic-in-library",
	Doc:  "forbid panic in internal packages except annotated invariant guards",
	Run:  runPanicInLibrary,
}

func runPanicInLibrary(p *Pass) {
	if !strings.HasPrefix(p.Pkg.Path, "parroute/internal/") {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, ok := p.Pkg.Info.Uses[id].(*types.Builtin); !ok {
				return true
			}
			p.Reportf(call.Pos(), "panic in library code: return an error, or document the invariant with //lint:allow")
			return true
		})
	}
}

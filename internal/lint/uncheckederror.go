package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerUncheckedError flags transport and serialization calls whose
// error result is silently discarded as a bare statement. A dropped
// mp.Send/Recv/collective error turns a failed exchange into a hang or
// corrupted routing state; a dropped encode/decode error ships truncated
// results. Scope is deliberate: calls into internal/mp, encoding/json,
// io, and the module's own JSON (de)serializers. Assigning the error to
// `_` is treated as an explicit, visible decision and is not flagged.
var analyzerUncheckedError = &Analyzer{
	Name: "unchecked-error",
	Doc:  "forbid discarding errors from mp transport and JSON/io calls",
	Run:  runUncheckedError,
}

// uncheckedErrorPkgs are the packages, besides internal/mp, whose error
// results must always be consumed.
var uncheckedErrorPkgs = map[string]bool{
	"encoding/json": true,
	"io":            true,
}

// uncheckedErrorNames extends the scope to the module's serializers
// wherever they are defined.
var uncheckedErrorNames = map[string]bool{
	"WriteJSON": true, "ReadJSON": true, "ReadResultJSON": true,
}

func runUncheckedError(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(p.Pkg.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || !returnsError(sig) {
				return true
			}
			path := fn.Pkg().Path()
			inScope := isMP(path) || uncheckedErrorPkgs[path] ||
				(strings.HasPrefix(path, "parroute") && uncheckedErrorNames[fn.Name()])
			if !inScope {
				return true
			}
			p.Reportf(call.Pos(), "error result of %s.%s is discarded: check it or assign it to _ explicitly", path, fn.Name())
			return true
		})
	}
}

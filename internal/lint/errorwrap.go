package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// analyzerErrorWrap requires fmt.Errorf to wrap error operands with %w.
// Formatting an error with %v (or %s) flattens it to text, so callers can
// no longer match the cause with errors.Is/As — mp.ErrDeadlock, for
// example, would become undetectable once wrapped that way.
var analyzerErrorWrap = &Analyzer{
	Name: "error-wrap",
	Doc:  "require %w when fmt.Errorf formats an error operand",
	Run:  runErrorWrap,
}

func runErrorWrap(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
			if !ok {
				return true
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil || strings.Contains(format, "%[") {
				return true // explicit argument indexes: out of scope
			}
			for i, verb := range formatVerbs(format) {
				argIdx := 1 + i
				if argIdx >= len(call.Args) || verb == 'w' || verb == 0 {
					continue
				}
				t := info.TypeOf(call.Args[argIdx])
				if t == nil || !types.Implements(t, errorType) {
					continue
				}
				p.Reportf(call.Args[argIdx].Pos(), "error formatted with %%%c: use %%w so the cause stays matchable with errors.Is/As", verb)
			}
			return true
		})
	}
}

// formatVerbs returns one entry per argument the format string consumes:
// the verb rune for conversions, 0 for * width/precision operands.
func formatVerbs(format string) []rune {
	var out []rune
	runes := []rune(format)
	for i := 0; i < len(runes); i++ {
		if runes[i] != '%' {
			continue
		}
		i++
		if i < len(runes) && runes[i] == '%' {
			continue
		}
		// flags, width, precision; '*' consumes an argument of its own.
		for i < len(runes) && strings.ContainsRune("+-# 0123456789.*", runes[i]) {
			if runes[i] == '*' {
				out = append(out, 0)
			}
			i++
		}
		if i < len(runes) {
			out = append(out, runes[i])
		}
	}
	return out
}

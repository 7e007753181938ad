// Package lint is the static-analysis suite its TestModuleIsClean runs
// over the module: the determinism and message-passing rules the parallel
// routing algorithms depend on. Every worker draws randomness from its own
// rng.RNG stream, wall-clock time never feeds a routing decision, state
// crosses goroutines through the mp transports (whose errors must be
// checked), and map iteration order never leaks into routing output.
//
// The driver is built entirely on the standard library (go/parser,
// go/types); see load.go. Analyzers report file:line diagnostics; a
// deliberate exception is suppressed by annotating the offending line (or,
// with a directive alone on its line, the line directly above it) with
//
//	//lint:allow <rule> <reason>
//
// where <rule> names the analyzer and <reason> is a non-empty
// justification. A directive missing either part is itself reported under
// the rule name "lint-directive" and suppresses nothing.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding at one source position. File is relative to
// the module root, with forward slashes.
type Diagnostic struct {
	File string
	Line int
	Col  int
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Msg)
}

// Analyzer is one named rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass hands one package to one analyzer.
type Pass struct {
	Mod  *Module
	Pkg  *Package
	rule string
	out  *[]Diagnostic
}

// relFile returns the file holding pos, relative to the module root with
// forward slashes.
func (m *Module) relFile(pos token.Position) string {
	if rel, err := filepath.Rel(m.Root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return pos.Filename
}

// Reportf records a diagnostic at pos under the running analyzer's rule.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	*p.out = append(*p.out, Diagnostic{
		File: p.Mod.relFile(position),
		Line: position.Line,
		Col:  position.Column,
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// deterministicPkgs are the import paths whose routing results must not
// depend on Go map iteration order or on an unstable sort; the map-ordering
// checks of the nondeterminism analyzer and the sort-order analyzer run
// only there. The policy is documented in DESIGN.md's "Static analysis"
// section.
var deterministicPkgs = []string{
	"parroute/internal/route",
	"parroute/internal/parallel",
	"parroute/internal/steiner",
	"parroute/internal/partition",
	"parroute/internal/channel",
}

// clockPkg is the one package allowed to read the wall clock — the
// observer clock: every phase and stage timing in the module is read there,
// and observers cannot affect routing output.
const clockPkg = "parroute/internal/pipeline"

// underTestdata reports whether a package path or file name lies in a
// testdata fixture tree. Fixtures opt into every scoped rule so the golden
// tests can exercise them.
func underTestdata(path string) bool { return strings.Contains(path, "/testdata/") }

// deterministicScope reports whether the map-ordering rules apply to pkg.
func deterministicScope(pkgPath string) bool {
	return underTestdata(pkgPath) || slices.Contains(deterministicPkgs, pkgPath)
}

// Analyzers returns the full registry, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerNondeterminism,
		analyzerRNGSharing,
		analyzerUncheckedError,
		analyzerErrorWrap,
		analyzerPanicInLibrary,
		analyzerTagDiscipline,
		analyzerForbiddenCall,
		analyzerSortOrder,
		analyzerCtxRule,
	}
}

// Run executes every analyzer over every package of mod, applies
// //lint:allow suppressions (including the stale-suppression audit), and
// returns the surviving diagnostics sorted by position.
func Run(mod *Module) []Diagnostic {
	var raw []Diagnostic
	analyzers := Analyzers()
	for _, pkg := range mod.Pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Mod: mod, Pkg: pkg, rule: a.Name, out: &raw})
		}
	}
	diags := applyAllows(mod, raw)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return diags
}

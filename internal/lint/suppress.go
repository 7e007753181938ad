package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	file   string // module-root relative
	line   int
	rule   string
	reason string
	valid  bool
	// alone marks a directive with no code on its line; only such a
	// directive reaches the line below.
	alone bool
}

// parseAllows extracts every //lint:allow directive from the module's
// loaded files.
func parseAllows(mod *Module) []allowDirective {
	var out []allowDirective
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			var code map[int]bool // built for files that carry a directive
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//")
					if !ok {
						continue // /* */ comments cannot carry directives
					}
					text = strings.TrimSpace(text)
					rest, ok := strings.CutPrefix(text, "lint:allow")
					if !ok {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					d := allowDirective{file: mod.relFile(pos), line: pos.Line}
					fields := strings.Fields(rest)
					if len(fields) >= 2 {
						d.rule = fields[0]
						d.reason = strings.Join(fields[1:], " ")
						d.valid = true
					}
					if code == nil {
						code = codeLines(mod.Fset.File(f.Pos()), f)
					}
					d.alone = !code[d.line]
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// codeLines returns the lines of f on which a syntax node starts or ends:
// the lines that hold code.
func codeLines(tf *token.File, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		case *ast.File:
			return true
		}
		lines[tf.Line(n.Pos())] = true
		lines[tf.Line(n.End()-1)] = true
		return true
	})
	return lines
}

// applyAllows drops diagnostics covered by a valid //lint:allow on the
// same line, or alone on the line directly above (a directive that trails
// code covers that line only), and reports malformed directives under the
// "lint-directive" rule.
//
// Valid directives that suppressed nothing are themselves reported under
// "stale-allow", so the suppression inventory cannot rot as analyzers
// rename or code heals. The audit has its own escape hatch —
// `//lint:allow stale-allow <reason>` on the line above a deliberately kept
// directive — and a stale-allow directive that excuses nothing is stale in
// turn.
func applyAllows(mod *Module, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
		rule string
	}
	all := parseAllows(mod)
	allowed := map[key]*allowDirective{}
	used := map[*allowDirective]bool{}
	var out []Diagnostic
	for i := range all {
		d := &all[i]
		if !d.valid {
			out = append(out, Diagnostic{
				File: d.file, Line: d.line, Col: 1, Rule: "lint-directive",
				Msg: "malformed directive: want //lint:allow <rule> <reason>",
			})
			continue
		}
		allowed[key{d.file, d.line, d.rule}] = d
		if d.alone {
			allowed[key{d.file, d.line + 1, d.rule}] = d
		}
	}
	for _, d := range diags {
		if a := allowed[key{d.File, d.Line, d.Rule}]; a != nil {
			used[a] = true
			continue
		}
		out = append(out, d)
	}
	known := map[string]bool{"lint-directive": true, "stale-allow": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	emitStale := func(d *allowDirective, msg string) {
		// The audit's own suppressions work like every other rule's: a
		// stale-allow directive on the stale directive's line or the line
		// above excuses it (and is thereby used itself).
		if a := allowed[key{d.file, d.line, "stale-allow"}]; a != nil && a != d {
			used[a] = true
			return
		}
		out = append(out, Diagnostic{
			File: d.file, Line: d.line, Col: 1, Rule: "stale-allow", Msg: msg,
		})
	}
	for i := range all {
		d := &all[i]
		if !d.valid || used[d] || d.rule == "stale-allow" {
			continue
		}
		if known[d.rule] {
			emitStale(d, fmt.Sprintf("stale //lint:allow %s: no %s diagnostic here to suppress — delete the directive", d.rule, d.rule))
		} else {
			emitStale(d, fmt.Sprintf("stale //lint:allow %s: unknown rule %q — delete the directive or fix the rule name", d.rule, d.rule))
		}
	}
	for i := range all {
		d := &all[i]
		if d.valid && !used[d] && d.rule == "stale-allow" {
			emitStale(d, "stale //lint:allow stale-allow: it excuses no stale directive — delete it")
		}
	}
	return out
}

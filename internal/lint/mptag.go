package lint

import (
	"go/ast"
	"go/types"
)

// analyzerTagDiscipline enforces the message-tag rule, in three parts:
//
//   - Site discipline: every tag argument of Send/Recv/collective calls
//     must be a named constant (the tagFakePins… family in
//     internal/parallel/messages.go) or a pass-through variable — never a
//     raw literal or constant arithmetic (tagWires+1000), which silently
//     mints an unregistered protocol stream.
//   - Orphan tags: across the loaded module, every named tag constant
//     must have both a non-empty static send-site set and a non-empty
//     recv-site set (collectives count as both). A tag only ever sent is
//     a message nobody drains; a tag only ever received is a Recv that
//     blocks forever; a tag never used at all is dead protocol surface.
//     Calls are followed one level deep through module helpers whose
//     parameters flow into tag positions.
//   - Reserved range: user tag constants must be non-negative. The
//     negative tag space belongs to the mp engines (tagBarrier and
//     friends), so internal/mp is the one package allowed to declare
//     negative tags; a user constant straying into the range collides
//     with engine traffic, and the transport rejects it at runtime anyway.
//
// Orphans and reserved-range collisions are reported at the constant's
// declaration, by the package that declares it, so each fires exactly
// once per module run.
var analyzerTagDiscipline = &Analyzer{
	Name: "tag-discipline",
	Doc:  "message tags must be named constants with both send and receive sites module-wide",
	Run:  runTagDiscipline,
}

func runTagDiscipline(p *Pass) {
	idx := p.Mod.protocolIndex()
	for _, f := range p.Pkg.Files {
		checkTagSites(p, f)
		checkOrphanTags(p, idx, f)
	}
}

// checkTagSites flags literal or computed-constant tag arguments.
func checkTagSites(p *Pass, f *ast.File) {
	info := p.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op := classify(info, call)
		if op == nil {
			return true
		}
		arg := op.Tag(call)
		if arg == nil || namedConst(info, arg) != nil {
			return true // no tag, or a declared tag constant
		}
		if tv, ok := info.Types[arg]; ok && tv.Value != nil {
			p.Reportf(arg.Pos(),
				"tag of %s is a raw constant expression: use a named tag constant so the protocol stream is auditable",
				op.Name)
		}
		return true
	})
}

// checkOrphanTags reports tag constants declared in this file whose
// module-wide send or receive site set is empty.
func checkOrphanTags(p *Pass, idx *protoIndex, f *ast.File) {
	info := p.Pkg.Info
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				obj, ok := info.Defs[name].(*types.Const)
				if !ok {
					continue
				}
				v, isTag := tagValue(obj)
				if isTag && v < 0 && !isMP(p.Pkg.Path) {
					p.Reportf(name.Pos(),
						"tag %s = %d collides with the engine-reserved negative tag range: user tags must be >= 0",
						name.Name, v)
				}
				sites := idx.tags[obj]
				switch {
				case sites == nil:
					if isTag {
						p.Reportf(name.Pos(),
							"tag %s is declared but never used in any send or receive", name.Name)
					}
				case sites.sends == 0:
					p.Reportf(name.Pos(),
						"tag %s is received (%d site(s)) but never sent: those Recvs block forever", name.Name, sites.recvs)
				case sites.recvs == 0:
					p.Reportf(name.Pos(),
						"tag %s is sent (%d site(s)) but never received: those messages are never drained", name.Name, sites.sends)
				}
			}
		}
	}
}

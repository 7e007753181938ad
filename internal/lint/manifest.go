package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"

	"parroute/internal/mpproto"
)

// The manifest-aware half of the mpproto analyzer family. mpgen derives
// mp_protocol.json — the machine-readable contract of the mp message set
// (payload layouts, wire ids, the tag table, the collective census) —
// from the //mp:payload types and protocol constants themselves. The
// checks here close the loop in the other direction: the source must
// still match the committed manifest, so editing a payload struct or a
// tag constant without running `go generate ./...` fails the lint gate
// even before `mpgen -check` compares bytes.
//
// A package is only checked when a manifest covers it: the one in the
// package's own directory wins (lint fixtures carry local manifests),
// falling back to the module root's. Packages outside every manifest's
// coverage list are exempt, so ordinary fixture packages stay unaffected.

// manifestEntry caches one manifest load; nil manifest means the file is
// absent or unreadable (mpgen -check reports the real error in CI).
type manifestEntry struct {
	man *mpproto.Manifest
}

// manifestFor resolves the protocol manifest governing pkg, memoized on
// the Module.
func (m *Module) manifestFor(pkg *Package) *mpproto.Manifest {
	if m.manifests == nil {
		m.manifests = map[string]*manifestEntry{}
	}
	for _, dir := range []string{pkg.Dir, m.Root} {
		path := filepath.Join(dir, mpproto.ManifestName)
		e, ok := m.manifests[path]
		if !ok {
			e = &manifestEntry{}
			if _, err := os.Stat(path); err == nil {
				e.man, _ = mpproto.Load(path)
			}
			m.manifests[path] = e
		}
		if e.man != nil {
			return e.man
		}
	}
	return nil
}

// staticPayloadName returns the manifest name of a send-site payload
// expression's static type ("pkg/path.Name" for named types, "[]int32"
// and friends for builtins), or "" when the static type is an interface
// — a relayed any has no static payload identity.
func staticPayloadName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := types.Default(tv.Type)
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return ""
	}
	return types.TypeString(t, nil)
}

// manifestHasType reports whether man prices the payload type named by
// staticPayloadName: a builtin shape entry or a per-package type entry.
func manifestHasType(man *mpproto.Manifest, typeName string) bool {
	for i := range man.Types {
		e := &man.Types[i]
		if e.Package == "" && e.Name == typeName {
			return true
		}
		if e.Package != "" && e.Package+"."+e.Name == typeName {
			return true
		}
	}
	return false
}

var analyzerManifestDrift = &Analyzer{
	Name: "manifest-drift",
	Doc:  "//mp:payload types and mp send sites must match mp_protocol.json; regenerate with `go generate ./...`",
	Run:  runManifestDrift,
}

func runManifestDrift(p *Pass) {
	man := p.Mod.manifestFor(p.Pkg)
	if man == nil || !man.Covers(p.Pkg.Path) {
		return
	}
	marked := map[string]bool{}
	for _, f := range p.Pkg.Files {
		checkMarkedTypes(p, man, f, marked)
	}
	checkStaleEntries(p, man, marked)
	for _, f := range p.Pkg.Files {
		checkSentPayloads(p, man, f)
		checkWireCodecRegistrations(p, man, f)
	}
}

// checkWireCodecRegistrations verifies every mp.Register[T](id) call
// against the manifest's wire-id table: T must be a manifest type and
// the id must be its recorded wireId. The ids are on the socket — a
// frame's payload is decoded by looking the id up on the receiving
// process — so an id the manifest does not record, or one attached to a
// different type than the manifest says, is a protocol fork between
// builds, not a style problem.
func checkWireCodecRegistrations(p *Pass, man *mpproto.Manifest, f *ast.File) {
	info := p.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		inst, ok := ast.Unparen(call.Fun).(*ast.IndexExpr)
		fn := calleeFunc(info, call)
		if !ok || fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != mpPkgPath ||
			fn.Name() != "Register" || len(call.Args) != 1 {
			return true
		}
		id, ok := constUint32Of(info, call.Args[0])
		if !ok {
			p.Reportf(call.Args[0].Pos(),
				"Register id must be a constant so %s can record it", mpproto.ManifestName)
			return true
		}
		typeName := staticPayloadName(info, inst.Index)
		if typeName == "" {
			return true
		}
		entry := manifestTypeByQualifiedName(man, typeName)
		if entry == nil {
			p.Reportf(inst.Index.Pos(),
				"wire codec registered for %s, which %s does not record: run `go generate ./...` and commit the regenerated files",
				typeName, mpproto.ManifestName)
			return true
		}
		if entry.WireID != id {
			p.Reportf(call.Args[0].Pos(),
				"wire codec for %s registered under id %d but %s records wireId %d: run `go generate ./...` and commit the regenerated files",
				typeName, id, mpproto.ManifestName, entry.WireID)
		}
		return true
	})
}

// manifestTypeByQualifiedName finds the entry whose qualified name
// ("pkg/path.Name", or the builtin spelling) matches typeName.
func manifestTypeByQualifiedName(man *mpproto.Manifest, typeName string) *mpproto.TypeEntry {
	for i := range man.Types {
		e := &man.Types[i]
		if e.Package == "" && e.Name == typeName {
			return e
		}
		if e.Package != "" && e.Package+"."+e.Name == typeName {
			return e
		}
	}
	return nil
}

// constUint32Of extracts a constant uint32 from an expression.
func constUint32Of(info *types.Info, e ast.Expr) (uint32, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, exact := constant.Uint64Val(constant.ToInt(tv.Value))
	if !exact || v > 1<<32-1 {
		return 0, false
	}
	return uint32(v), true
}

// checkMarkedTypes verifies every //mp:payload type of f against its
// manifest entry, field by field, and records the marked names.
func checkMarkedTypes(p *Pass, man *mpproto.Manifest, f *ast.File, marked map[string]bool) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if !mpproto.HasPayloadMarker(gd.Doc) && !mpproto.HasPayloadMarker(ts.Doc) {
				continue
			}
			marked[ts.Name.Name] = true
			obj := p.Pkg.Info.Defs[ts.Name]
			if obj == nil {
				continue
			}
			want, err := mpproto.TypeEntryFor(ts.Name.Name, p.Pkg.Path, obj.Type())
			if err != nil {
				p.Reportf(ts.Pos(), "payload %s has no flat wire layout: %v", ts.Name.Name, err)
				continue
			}
			got := man.TypeByName(p.Pkg.Path, ts.Name.Name)
			if got == nil {
				p.Reportf(ts.Pos(),
					"payload %s is missing from %s: run `go generate ./...` and commit the regenerated files",
					ts.Name.Name, mpproto.ManifestName)
				continue
			}
			if diff := mpproto.DiffLayout(&want, got); diff != "" {
				p.Reportf(ts.Pos(),
					"payload %s drifted from %s (%s): run `go generate ./...` and commit the regenerated files",
					ts.Name.Name, mpproto.ManifestName, diff)
			}
		}
	}
}

// checkStaleEntries reports manifest type entries attributed to this
// package that no longer correspond to a marked type — a deleted or
// unmarked payload left behind in the committed manifest.
func checkStaleEntries(p *Pass, man *mpproto.Manifest, marked map[string]bool) {
	if len(p.Pkg.Files) == 0 {
		return
	}
	pos := p.Pkg.Files[0].Name.Pos()
	for i := range man.Types {
		e := &man.Types[i]
		if e.Package != p.Pkg.Path || marked[e.Name] {
			continue
		}
		p.Reportf(pos,
			"%s entry %s has no //mp:payload type in this package: stale manifest, run `go generate ./...`",
			mpproto.ManifestName, e.Name)
	}
}

// checkSentPayloads verifies that every statically typed payload handed
// to a sending mp operation is priced by the manifest — the enforcement
// loop that catches a payload type sent without the //mp:payload marker
// (and therefore without a codec: its Send fails on the TCP engines).
func checkSentPayloads(p *Pass, man *mpproto.Manifest, f *ast.File) {
	info := p.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op := resolveMPOp(info, call)
		if op == nil || op.sides&sideSend == 0 {
			return true
		}
		idx := op.payloadIdx
		if idx < 0 || idx >= len(call.Args) {
			return true
		}
		name := staticPayloadName(info, call.Args[idx])
		if name == "" || manifestHasType(man, name) {
			return true
		}
		p.Reportf(call.Args[idx].Pos(),
			"payload type %s is sent over mp but not priced by %s: mark it //mp:payload and run `go generate ./...`",
			name, mpproto.ManifestName)
		return true
	})
}

// checkManifestTags cross-checks the declared tag constants of f against
// the manifest's tag table; reported under tag-discipline (see mptag.go).
func checkManifestTags(p *Pass, man *mpproto.Manifest, f *ast.File) {
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
				if !ok || !isTagName(name.Name) || !isIntegerConst(obj) {
					continue
				}
				v, ok := constIntValue(obj)
				if !ok {
					continue
				}
				entry := man.TagByName(p.Pkg.Path, name.Name)
				if entry == nil {
					p.Reportf(name.Pos(),
						"tag %s is not in %s's tag table: run `go generate ./...` and commit the regenerated files",
						name.Name, mpproto.ManifestName)
					continue
				}
				if entry.Value != v {
					p.Reportf(name.Pos(),
						"tag %s = %d but %s records %d: run `go generate ./...` and commit the regenerated files",
						name.Name, v, mpproto.ManifestName, entry.Value)
				}
			}
		}
	}
}

// checkManifestTagSites cross-checks sending sites against the
// manifest's per-tag payload sets; reported under send-recv-pairing (see
// mppairing.go). A site sending a statically typed payload under a named
// tag must appear in the tag's recorded payload set — a mismatch means
// the protocol changed shape after the last regeneration.
func checkManifestTagSites(p *Pass, f *ast.File) {
	man := p.Mod.manifestFor(p.Pkg)
	if man == nil || !man.Covers(p.Pkg.Path) {
		return
	}
	info := p.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op := resolveMPOp(info, call)
		if op == nil || op.sides&sideSend == 0 || op.tagIdx < 0 || op.tagIdx >= len(call.Args) {
			return true
		}
		tag := namedConstOf(info, call.Args[op.tagIdx])
		if tag == nil || tag.Pkg() == nil || !man.Covers(tag.Pkg().Path()) {
			return true
		}
		idx := op.payloadIdx
		if idx < 0 || idx >= len(call.Args) {
			return true
		}
		name := staticPayloadName(info, call.Args[idx])
		if name == "" {
			return true
		}
		entry := man.TagByName(tag.Pkg().Path(), tag.Name())
		if entry == nil {
			return true // the declaration-site check reports the missing tag
		}
		for _, rec := range entry.Payloads {
			if rec == name {
				return true
			}
		}
		p.Reportf(call.Args[idx].Pos(),
			"%s sends %s under tag %s, but %s records payloads %v for it: run `go generate ./...`",
			op.name, name, tag.Name(), mpproto.ManifestName, entry.Payloads)
		return true
	})
}

// constIntValue extracts obj's integer value.
func constIntValue(obj *types.Const) (int, bool) {
	v := obj.Val()
	if v == nil {
		return 0, false
	}
	i, exact := constant.Int64Val(constant.ToInt(v))
	return int(i), exact
}

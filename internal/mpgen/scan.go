// Package mpgen derives the mp message set's codecs, pricing, and
// protocol manifest from the payload structs themselves. It scans the
// module with the same stdlib-only loader the lint suite uses
// (internal/lint), discovers every type annotated with the //mp:payload
// directive, and emits per-package mpwire_gen.go files (flat binary
// codecs, WireSize pricing, one-line registration) plus mp_protocol.json —
// the machine-readable protocol contract. cmd/mpgen is the CLI;
// `mpgen -check`, a byte compare of both against the tree, is the one
// drift gate.
package mpgen

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"

	"parroute/internal/lint"
	"parroute/internal/mpproto"
)

// GeneratedFileName is the per-package output file.
const GeneratedFileName = "mpwire_gen.go"

// PayloadType is one //mp:payload-annotated type scheduled for
// generation.
type PayloadType struct {
	Name   string
	Type   types.Type
	WireID uint32
	Entry  mpproto.TypeEntry
}

// GenPackage is one package that receives a generated file: every
// package that declares a payload type, and internal/mp, whose file
// carries WireProtocolChecksum whether it declares payloads or not.
type GenPackage struct {
	Path  string
	Dir   string
	Pkg   *types.Package
	Types []PayloadType
}

// Model is everything the generator needs: the packages to write and the
// manifest they imply.
type Model struct {
	Root     string
	Module   string
	Pkgs     []*GenPackage
	Manifest *mpproto.Manifest
}

// Scan loads the module containing root and builds the generation model:
// marked payload types with deterministic wire ids, the tag table with
// statically visible payload associations, and the collective census. A
// type sent over mp without the //mp:payload marker is an error naming the
// send site: no byte compare can see it (the manifest would be current and
// still wrong), and its Send fails on the TCP engines for want of a codec.
// The generated files themselves are excluded from the load, so a stale
// mpwire_gen.go — even one that no longer type-checks after a payload
// edit — never blocks regeneration.
func Scan(root string) (*Model, error) {
	mod, err := lint.LoadModuleSkipping(root, GeneratedFileName)
	if err != nil {
		return nil, fmt.Errorf("mpgen: %w", err)
	}
	return scanModule(mod)
}

func scanModule(mod *lint.Module) (*Model, error) {
	m := &Model{Root: mod.Root, Module: mod.Path}

	// Pass 1: marked payload types, per package.
	byPath := map[string]*GenPackage{}
	genPkg := func(pkg *lint.Package) *GenPackage {
		gp := byPath[pkg.Path]
		if gp == nil {
			gp = &GenPackage{Path: pkg.Path, Dir: pkg.Dir, Pkg: pkg.Types}
			byPath[pkg.Path] = gp
			m.Pkgs = append(m.Pkgs, gp)
		}
		return gp
	}
	for _, pkg := range mod.Pkgs {
		if pkg.Path == mpproto.MPPath(mod.Path) {
			genPkg(pkg)
		}
		for _, f := range pkg.Files {
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
					obj := pkg.Info.Defs[ts.Name]
					if obj == nil {
						continue
					}
					entry, err := mpproto.TypeEntryFor(ts.Name.Name, pkg.Path, obj.Type())
					if err != nil {
						return nil, fmt.Errorf("mpgen: %s: %w", pkg.Path, err)
					}
					gp := genPkg(pkg)
					gp.Types = append(gp.Types, PayloadType{Name: ts.Name.Name, Type: obj.Type(), Entry: entry})
				}
			}
		}
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })

	// Deterministic wire ids over (package, name) order, after the
	// reserved builtin ids. Id 0 is never valid.
	id := uint32(mpproto.FirstPayloadWireID)
	for _, gp := range m.Pkgs {
		sort.Slice(gp.Types, func(i, j int) bool { return gp.Types[i].Name < gp.Types[j].Name })
		for i := range gp.Types {
			gp.Types[i].WireID = id
			gp.Types[i].Entry.WireID = id
			id++
		}
	}

	// Pass 2: tag constants of every package that declares payloads or
	// protocol tags — the manifest's coverage set.
	covered := map[string]bool{}
	for _, gp := range m.Pkgs {
		covered[gp.Path] = true
	}
	var tags []mpproto.TagEntry
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
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
						c, ok := pkg.Info.Defs[name].(*types.Const)
						if !ok {
							continue
						}
						v, ok := mpproto.TagValue(c)
						if !ok {
							continue
						}
						covered[pkg.Path] = true
						tags = append(tags, mpproto.TagEntry{
							Name: name.Name, Package: pkg.Path, Value: v, Reserved: v < 0,
						})
					}
				}
			}
		}
	}

	// Pass 3: send/collective sites — tag→payload associations and the
	// collective census, over the covered packages.
	priced := map[string]bool{}
	for _, e := range mpproto.BuiltinTypes() {
		priced[e.Name] = true
	}
	for _, gp := range m.Pkgs {
		for i := range gp.Types {
			priced[gp.Path+"."+gp.Types[i].Name] = true
		}
	}
	payloads := map[string]map[string]bool{} // "pkg\x00tag" -> type set
	collectives := map[string]int{}
	var unmarked error
	for _, pkg := range mod.Pkgs {
		if !covered[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				op := mpproto.Classify(pkg.Info, call)
				if op == nil {
					return true
				}
				if op.Collective {
					collectives[op.Name]++
				}
				payload := op.Payload(call)
				if payload == nil {
					return true
				}
				tv, ok := pkg.Info.Types[payload]
				if !ok || tv.Type == nil {
					return true
				}
				typ := types.Default(tv.Type)
				if s, isSlice := typ.Underlying().(*types.Slice); op.PerRank && isSlice {
					typ = s.Elem() // one value per rank: the element crosses the wire
				}
				if _, isIface := typ.Underlying().(*types.Interface); isIface {
					return true // a relayed any or T — no static payload identity
				}
				name := types.TypeString(typ, nil)
				if !priced[name] && unmarked == nil {
					unmarked = fmt.Errorf("mpgen: %s: %s sends %s, which has no //mp:payload marker: mark the type and run `go generate ./...`",
						mod.Fset.Position(payload.Pos()), op.Name, name)
				}
				if tag := mpproto.NamedConst(pkg.Info, op.Tag(call)); tag != nil {
					key := tag.Pkg().Path() + "\x00" + tag.Name()
					if payloads[key] == nil {
						payloads[key] = map[string]bool{}
					}
					payloads[key][name] = true
				}
				return true
			})
		}
	}
	if unmarked != nil {
		return nil, unmarked
	}
	for i := range tags {
		set := payloads[tags[i].Package+"\x00"+tags[i].Name]
		for typ := range set {
			tags[i].Payloads = append(tags[i].Payloads, typ)
		}
		sort.Strings(tags[i].Payloads)
	}
	sort.Slice(tags, func(i, j int) bool {
		if tags[i].Package != tags[j].Package {
			return tags[i].Package < tags[j].Package
		}
		if tags[i].Value != tags[j].Value {
			return tags[i].Value < tags[j].Value
		}
		return tags[i].Name < tags[j].Name
	})

	// Assemble the manifest.
	man := &mpproto.Manifest{Schema: mpproto.SchemaVersion, Module: mod.Path}
	for p := range covered {
		man.Packages = append(man.Packages, p)
	}
	sort.Strings(man.Packages)
	man.Types = mpproto.BuiltinTypes()
	for _, gp := range m.Pkgs {
		for i := range gp.Types {
			man.Types = append(man.Types, gp.Types[i].Entry)
		}
	}
	sort.Slice(man.Types, func(i, j int) bool {
		a, b := &man.Types[i], &man.Types[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})
	man.Tags = tags
	for name := range collectives {
		man.Collectives = append(man.Collectives, mpproto.CollectiveEntry{Name: name, Sites: collectives[name]})
	}
	sort.Slice(man.Collectives, func(i, j int) bool { return man.Collectives[i].Name < man.Collectives[j].Name })
	m.Manifest = man
	return m, nil
}

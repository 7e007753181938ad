package lint

import (
	"go/ast"
	"go/types"
)

// The module-wide protocol index tag-discipline reads: per-tag send and
// receive site sets, with call edges followed one level deep through
// helpers that forward a parameter into a tag position. What counts as an
// internal/mp operation is classify's to say.

// tagSites counts the static send-side and recv-side call sites of one
// named tag constant across the loaded module.
type tagSites struct {
	sends, recvs int
}

// protoIndex is the module-wide protocol view, built once per loaded
// Module.
type protoIndex struct {
	tags map[*types.Const]*tagSites
}

// protocolIndex builds (memoized) the protocol index for mod.
func (m *Module) protocolIndex() *protoIndex {
	if m.proto != nil {
		return m.proto
	}
	idx := &protoIndex{tags: map[*types.Const]*tagSites{}}
	// Pass 1: the tag parameters of every module function.
	forwards := map[*types.Func]map[int]tagSide{}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				forwards[fn] = tagParams(pkg.Info, fd)
			}
		}
	}
	// Pass 2: tag site sets, following helper calls one level deep through
	// pass 1 (a named constant handed to a helper's tag parameter counts at
	// the helper's direction).
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if op := classify(pkg.Info, call); op != nil {
					idx.recordTag(pkg.Info, op.Tag(call), op.Sides)
					return true
				}
				fn := callee(pkg.Info, call)
				if fn == nil {
					return true
				}
				for i, s := range forwards[funcOrigin(fn)] {
					if i < len(call.Args) {
						idx.recordTag(pkg.Info, call.Args[i], s)
					}
				}
				return true
			})
		}
	}
	m.proto = idx
	return idx
}

// recordTag attributes a tag argument site to its named constant, if the
// expression is one.
func (idx *protoIndex) recordTag(info *types.Info, e ast.Expr, s tagSide) {
	obj := namedConst(info, e)
	if obj == nil {
		return
	}
	ts := idx.tags[obj]
	if ts == nil {
		ts = &tagSites{}
		idx.tags[obj] = ts
	}
	if s&sideSend != 0 {
		ts.sends++
	}
	if s&sideRecv != 0 {
		ts.recvs++
	}
}

// tagParams returns the parameters fd forwards into the tag position of a
// direct protocol call (function literals excluded), with the direction of
// each.
func tagParams(info *types.Info, fd *ast.FuncDecl) map[int]tagSide {
	out := map[int]tagSide{}
	params := paramObjects(info, fd)
	inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		op := classify(info, call)
		if op == nil {
			return
		}
		if id, ok := ast.Unparen(op.Tag(call)).(*ast.Ident); ok {
			if i, isParam := params[objOf(info, id)]; isParam {
				out[i] |= op.Sides
			}
		}
	})
	return out
}

// paramObjects maps fd's parameter objects to their positional index.
func paramObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]int {
	out := map[types.Object]int{}
	i := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = i
			}
			i++
		}
	}
	return out
}

// inspectSkippingFuncLits walks node in source order but does not descend
// into function literals.
func inspectSkippingFuncLits(node ast.Node, visit func(ast.Node)) {
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// funcOrigin strips a generic instantiation back to its declared origin,
// so instantiated calls (mp.Register[T]) match the summary key.
func funcOrigin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

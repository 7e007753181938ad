package lint

import (
	"go/ast"
	"go/types"

	"parroute/internal/mpproto"
)

// Shared machinery for the mpproto analyzer family (collective-congruence,
// tag-discipline, send-recv-pairing): a module-wide protocol index
// (per-function collective summaries and per-tag send/receive site sets,
// with call edges followed one level deep) and the rank-taint dataflow that
// decides whether a branch condition is derived from the caller's own rank.
// What counts as an internal/mp operation is mpproto.Classify's to say.

// funcProto is the one-level-deep summary of a module function: the
// collective events its body performs directly (in source order, function
// literals excluded — a closure runs at its caller's pleasure, not at this
// program point) and the parameters it forwards into tag positions of
// direct protocol calls.
type funcProto struct {
	events    []string
	tagParams map[int]mpproto.Side
}

// tagSites counts the static send-side and recv-side call sites of one
// named tag constant across the loaded module.
type tagSites struct {
	sends, recvs int
}

// protoIndex is the module-wide protocol view, built once per loaded
// Module and shared by the mpproto analyzers.
type protoIndex struct {
	funcs map[*types.Func]*funcProto
	tags  map[*types.Const]*tagSites
}

// protocolIndex builds (memoized) the protocol index for mod.
func (m *Module) protocolIndex() *protoIndex {
	if m.proto != nil {
		return m.proto
	}
	idx := &protoIndex{
		funcs: map[*types.Func]*funcProto{},
		tags:  map[*types.Const]*tagSites{},
	}
	// Pass 1: per-function summaries.
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
				idx.funcs[fn] = summarizeFunc(pkg.Info, fd)
			}
		}
	}
	// Pass 2: tag site sets, using the summaries to follow helper calls
	// one level deep (a named constant handed to a helper's tag parameter
	// counts at the helper's direction).
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if op := mpproto.Classify(pkg.Info, call); op != nil {
					idx.recordTag(pkg.Info, op.Tag(call), op.Sides)
					return true
				}
				fn := mpproto.Callee(pkg.Info, call)
				if fn == nil {
					return true
				}
				if fp := idx.funcs[funcOrigin(fn)]; fp != nil {
					for i, s := range fp.tagParams {
						if i < len(call.Args) {
							idx.recordTag(pkg.Info, call.Args[i], s)
						}
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
func (idx *protoIndex) recordTag(info *types.Info, e ast.Expr, s mpproto.Side) {
	obj := mpproto.NamedConst(info, e)
	if obj == nil {
		return
	}
	ts := idx.tags[obj]
	if ts == nil {
		ts = &tagSites{}
		idx.tags[obj] = ts
	}
	if s&mpproto.SideSend != 0 {
		ts.sends++
	}
	if s&mpproto.SideRecv != 0 {
		ts.recvs++
	}
}

// summarizeFunc computes fd's direct protocol summary.
func summarizeFunc(info *types.Info, fd *ast.FuncDecl) *funcProto {
	fp := &funcProto{tagParams: map[int]mpproto.Side{}}
	params := paramObjects(info, fd)
	inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		op := mpproto.Classify(info, call)
		if op == nil {
			return
		}
		if op.Collective {
			fp.events = append(fp.events, op.Name)
		}
		if id, ok := ast.Unparen(op.Tag(call)).(*ast.Ident); ok {
			if i, isParam := params[objOf(info, id)]; isParam {
				fp.tagParams[i] |= op.Sides
			}
		}
	})
	return fp
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

// ---- rank taint ----

// Taint bits: taintDerived marks a value computed from the caller's own
// rank; taintExact additionally marks a value that IS the rank (so it may
// equal the caller's index, where rank±1 cannot).
const (
	taintDerived uint8 = 1 << iota
	taintExact
)

// taintFacts maps local variable objects to their taint mask.
type taintFacts map[types.Object]uint8

// rankFlow is the Flow client tracking rank taint through local
// assignments.
type rankFlow struct {
	info *types.Info
}

func (rf *rankFlow) Bottom() taintFacts { return taintFacts{} }

func (rf *rankFlow) Join(a, b taintFacts) taintFacts {
	out := make(taintFacts, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] |= v
	}
	return out
}

func (rf *rankFlow) Equal(a, b taintFacts) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func (rf *rankFlow) Transfer(b *Block, in taintFacts) taintFacts {
	out := in
	copied := false
	set := func(obj types.Object, mask uint8) {
		if obj == nil {
			return
		}
		if !copied {
			next := make(taintFacts, len(out)+1)
			for k, v := range out {
				next[k] = v
			}
			out = next
			copied = true
		}
		if mask == 0 {
			delete(out, obj)
		} else {
			out[obj] = mask
		}
	}
	for _, s := range b.Stmts {
		rf.stepStmt(s, out, set)
	}
	return out
}

// stepStmt applies one statement's effect on the facts via set.
func (rf *rankFlow) stepStmt(s ast.Stmt, facts taintFacts, set func(types.Object, uint8)) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					set(objOf(rf.info, id), rf.valueTaint(s.Rhs[i], facts))
				}
			}
			return
		}
		// Multi-value call or range binding: function results are opaque
		// (interprocedural value taint is out of scope), so the targets
		// are killed.
		for _, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				set(objOf(rf.info, id), 0)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
			obj := objOf(rf.info, id)
			if facts[obj] != 0 {
				set(obj, taintDerived)
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				mask := uint8(0)
				if i < len(vs.Values) {
					mask = rf.valueTaint(vs.Values[i], facts)
				}
				set(rf.info.Defs[name], mask)
			}
		}
	}
}

// valueTaint evaluates the taint of an assigned value: exact for a bare
// Rank() call or a copy of an exact variable, derived for non-call
// expressions that mention rank state (rank±1, blocks[rank], rank == 0).
// Results of ordinary function calls are opaque — interprocedural value
// taint is out of scope — so passing rank into a function does not taint
// what comes back.
func (rf *rankFlow) valueTaint(e ast.Expr, facts taintFacts) uint8 {
	e = ast.Unparen(e)
	if isRankCall(rf.info, e) {
		return taintExact | taintDerived
	}
	switch e := e.(type) {
	case *ast.Ident:
		return facts[objOf(rf.info, e)]
	case *ast.CallExpr:
		return 0
	}
	if rf.mentionsRank(e, facts) {
		return taintDerived
	}
	return 0
}

// mentionsRank reports whether e contains a Rank() call or a tainted
// identifier anywhere (including inside function literals: capturing rank
// state taints the closure's observations too, and for condition checks
// over-approximation is the safe direction).
func (rf *rankFlow) mentionsRank(e ast.Expr, facts taintFacts) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isRankCall(rf.info, n) {
				found = true
				return false
			}
		case *ast.Ident:
			if facts[objOf(rf.info, n)] != 0 {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isRankCall reports whether e is a call of the Comm.Rank method of
// internal/mp (on the interface or any engine implementation).
func isRankCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && mpproto.IsMethodCall(info, call, "Rank")
}

// solveRankTaint builds the CFG of fd and runs the rank-taint flow,
// returning both for the analyzer to consume.
func solveRankTaint(info *types.Info, fd *ast.FuncDecl) (*CFG, *FlowResult[taintFacts], *rankFlow) {
	g := BuildCFG(fd.Body)
	rf := &rankFlow{info: info}
	return g, SolveForward[taintFacts](g, rf), rf
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"parroute/internal/mpproto"
)

// Shared machinery for the mpproto analyzer family (collective-congruence,
// tag-discipline, send-recv-pairing): recognition of internal/mp protocol
// calls, a module-wide protocol index (per-function collective summaries
// and per-tag send/receive site sets, with call edges followed one level
// deep), and the rank-taint dataflow that decides whether a branch
// condition is derived from the caller's own rank.

const mpPkgPath = "parroute/internal/mp"

// side is a bitmask of message directions a tag flows into.
type side uint8

const (
	sideSend side = 1 << iota
	sideRecv
)

// mpOp describes one recognized protocol operation of internal/mp.
type mpOp struct {
	name string
	// event marks operations every rank must execute congruently (the
	// collectives and Barrier); Send/Recv are point-to-point and are not
	// events.
	event bool
	sides side
	// tagIdx / peerIdx / payloadIdx are argument indices into the call, -1
	// when the operation has no tag (Barrier), no peer (collectives) or
	// sends no payload (Recv, Barrier).
	tagIdx     int
	peerIdx    int
	payloadIdx int
}

// resolveMPOp classifies call as a protocol operation of internal/mp:
// either a Comm method (Send/Recv/Barrier) or one of the package-level
// collectives. Returns nil for everything else.
func resolveMPOp(info *types.Info, call *ast.CallExpr) *mpOp {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != mpPkgPath {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch fn.Name() {
		case "Send":
			return &mpOp{name: "Send", sides: sideSend, tagIdx: 1, peerIdx: 0, payloadIdx: 2}
		case "Recv":
			return &mpOp{name: "Recv", sides: sideRecv, tagIdx: 1, peerIdx: 0, payloadIdx: -1}
		case "Barrier":
			return &mpOp{name: "Barrier", event: true, tagIdx: -1, peerIdx: -1, payloadIdx: -1}
		}
		return nil
	}
	// The collectives (signatures in mpproto.Collectives): every one of them
	// both sends and receives under its tag on some rank, so each call site
	// counts for both directions.
	if sig, ok := mpproto.Collectives[fn.Name()]; ok {
		return &mpOp{name: fn.Name(), event: true, sides: sideSend | sideRecv,
			tagIdx: sig.TagArg, peerIdx: -1, payloadIdx: sig.PayloadArg}
	}
	return nil
}

// funcProto is the one-level-deep summary of a module function: the
// collective events its body performs directly (in source order, function
// literals excluded — a closure runs at its caller's pleasure, not at this
// program point) and the parameters it forwards into tag positions of
// direct protocol calls.
type funcProto struct {
	events    []string
	tagParams map[int]side
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
	tags  map[types.Object]*tagSites
}

// protocolIndex builds (memoized) the protocol index for mod.
func (m *Module) protocolIndex() *protoIndex {
	if m.proto != nil {
		return m.proto
	}
	idx := &protoIndex{
		funcs: map[*types.Func]*funcProto{},
		tags:  map[types.Object]*tagSites{},
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
				if op := resolveMPOp(pkg.Info, call); op != nil {
					if op.tagIdx >= 0 && op.tagIdx < len(call.Args) {
						idx.recordTag(pkg.Info, call.Args[op.tagIdx], op.sides)
					}
					return true
				}
				fn := calleeFunc(pkg.Info, call)
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
func (idx *protoIndex) recordTag(info *types.Info, e ast.Expr, s side) {
	obj := namedConstOf(info, e)
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

// summarizeFunc computes fd's direct protocol summary.
func summarizeFunc(info *types.Info, fd *ast.FuncDecl) *funcProto {
	fp := &funcProto{tagParams: map[int]side{}}
	params := paramObjects(info, fd)
	inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		op := resolveMPOp(info, call)
		if op == nil {
			return
		}
		if op.event {
			fp.events = append(fp.events, op.name)
		}
		if op.tagIdx >= 0 && op.tagIdx < len(call.Args) {
			if id, ok := ast.Unparen(call.Args[op.tagIdx]).(*ast.Ident); ok {
				if i, isParam := params[objOf(info, id)]; isParam {
					fp.tagParams[i] |= op.sides
				}
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

// namedConstOf resolves e to a declared constant object (Ident or
// pkg.Selector), or nil.
func namedConstOf(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if c, ok := objOf(info, e).(*types.Const); ok {
			return c
		}
	case *ast.SelectorExpr:
		if c, ok := objOf(info, e.Sel).(*types.Const); ok {
			return c
		}
	}
	return nil
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
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != mpPkgPath || fn.Name() != "Rank" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// solveRankTaint builds the CFG of fd and runs the rank-taint flow,
// returning both for the analyzer to consume.
func solveRankTaint(info *types.Info, fd *ast.FuncDecl) (*CFG, *FlowResult[taintFacts], *rankFlow) {
	g := BuildCFG(fd.Body)
	rf := &rankFlow{info: info}
	return g, SolveForward[taintFacts](g, rf), rf
}

// isTagName reports whether a constant follows the repository's protocol
// tag naming convention (the tagFakePins… family).
func isTagName(name string) bool {
	return strings.HasPrefix(name, "tag") && len(name) > len("tag")
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"parroute/internal/mpproto"
)

// This file builds the interprocedural summary layer behind the
// concurrency analyzers (goroutine-lifecycle, lock-across-blocking,
// unbounded-spawn). It graduates mpproto.go's one-level helper expansion
// into a real call graph with per-function lifecycle summaries propagated
// to a fixpoint, so a termination signal (or a blocking operation) buried
// two helpers deep is still visible at the `go` statement or lock site
// that cares about it.
//
// The summary lattice is small and monotone — every field only ever flips
// false→true or grows a set — so the round-robin fixpoint below converges
// in at most (lattice height × call-graph depth) rounds and is cheap in
// practice. Soundness caveats are documented in DESIGN.md §12; the short
// version: function literals are opaque program points (house rule, see
// cfg.go), calls out of the module are assumed to terminate and not
// block, and sync.Cond.Wait is deliberately not a blocking operation
// because it releases its own mutex while parked.

// lifeSummary is the concurrency-lifecycle summary of one function: the
// termination signals its body observes and the blocking behaviour it
// exhibits, both closed over the module call graph.
type lifeSummary struct {
	// observesCtx: the body (or a callee) calls Done or Err on a
	// context.Context — it can see cancellation.
	observesCtx bool
	// wgDone: the body (or a callee) calls sync.WaitGroup.Done — the
	// goroutine is joined by whoever Waits.
	wgDone bool
	// hasLoop: the body itself contains a for/range loop. Deliberately
	// not propagated through calls: a callee's internal loop is assumed
	// to terminate (same trust we extend to out-of-module calls).
	hasLoop bool
	// blocks: the body (or a callee) performs a blocking operation —
	// channel send/recv, select without default, mp op, WaitGroup.Wait,
	// network I/O. blockDesc names the first one found.
	blocks    bool
	blockDesc string
	// recvObjs are the channel objects (locals, fields, package vars) the
	// body receives from; recvParams are the body's own channel-typed
	// parameter indices it receives from. Callers translate recvParams
	// through call-site arguments, so a receive loop in a helper still
	// matches a channel the spawner provably closes.
	recvObjs   map[types.Object]bool
	recvParams map[int]bool
}

func newLifeSummary() *lifeSummary {
	return &lifeSummary{
		recvObjs:   map[types.Object]bool{},
		recvParams: map[int]bool{},
	}
}

// lifeCallSite is one statically resolved call from a declared function to
// another module function, with the argument expressions kept for
// translating the callee's recvParams into the caller's frame.
type lifeCallSite struct {
	callee *types.Func
	args   []ast.Expr
}

// lifeFunc is the per-function record of the index.
type lifeFunc struct {
	fn      *types.Func
	decl    *ast.FuncDecl
	info    *types.Info
	params  map[types.Object]int
	summary *lifeSummary
	sites   []lifeCallSite
	// refs are module functions referenced without being called (method
	// values, functions stored in fields or passed as values). Signals
	// propagate over refs too — generously: if a referenced function
	// observes ctx, whoever ends up invoking the value does — but
	// blocking behaviour does not, since the reference alone blocks
	// nothing.
	refs []*types.Func
}

// lifeIndex is the module-wide view: one lifeFunc per declared function,
// plus the set of channel objects the module provably closes somewhere.
type lifeIndex struct {
	funcs  map[*types.Func]*lifeFunc
	closed map[types.Object]bool
}

// lifecycleIndex builds (memoized) the lifecycle index for mod.
func (m *Module) lifecycleIndex() *lifeIndex {
	if m.life != nil {
		return m.life
	}
	ix := &lifeIndex{
		funcs:  map[*types.Func]*lifeFunc{},
		closed: map[types.Object]bool{},
	}
	// Pass 1: per-function base summaries, call sites, refs; plus the
	// module-wide closed-channel set (close can live anywhere, including
	// closures, so that scan does descend into function literals).
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := objOf(pkg.Info, id).(*types.Builtin); ok && b.Name() == "close" {
						if obj := chanObjOf(pkg.Info, call.Args[0]); obj != nil {
							ix.closed[obj] = true
						}
					}
				}
				return true
			})
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				lf := &lifeFunc{
					fn:     fn,
					decl:   fd,
					info:   pkg.Info,
					params: fieldParamObjects(pkg.Info, fd.Type.Params),
				}
				lf.summary = summarizeLifecycle(pkg.Info, fd.Body, lf.params)
				lf.collectEdges(fd.Body)
				ix.funcs[fn] = lf
			}
		}
	}
	// Pass 2: round-robin fixpoint over the call graph. Deterministic
	// order is irrelevant here (the fixpoint is order-independent), so a
	// map walk per round is fine.
	for changed, round := true, 0; changed && round < 64; round++ {
		changed = false
		for _, lf := range ix.funcs {
			if ix.absorb(lf) {
				changed = true
			}
		}
	}
	m.life = ix
	return ix
}

// collectEdges records lf's statically resolved call sites and bare
// references to module functions, excluding nested function literals
// (opaque program points, same as the summaries).
func (lf *lifeFunc) collectEdges(body *ast.BlockStmt) {
	callIdents := map[*ast.Ident]bool{}
	inspectSkippingFuncLits(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				callIdents[fun] = true
			case *ast.SelectorExpr:
				callIdents[fun.Sel] = true
			}
			if fn := mpproto.Callee(lf.info, call); fn != nil {
				lf.sites = append(lf.sites, lifeCallSite{callee: funcOrigin(fn), args: call.Args})
			}
		}
	})
	inspectSkippingFuncLits(body, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || callIdents[id] {
			return
		}
		if fn, ok := lf.info.Uses[id].(*types.Func); ok {
			lf.refs = append(lf.refs, funcOrigin(fn))
		}
	})
}

// absorb folds the current summaries of lf's callees and referenced
// functions into lf's own summary, reporting whether anything changed.
func (ix *lifeIndex) absorb(lf *lifeFunc) bool {
	changed := false
	set := func(dst *bool, v bool) {
		if v && !*dst {
			*dst = true
			changed = true
		}
	}
	s := lf.summary
	for _, site := range lf.sites {
		cs := ix.summaryOf(site.callee)
		if cs == nil {
			continue
		}
		set(&s.observesCtx, cs.observesCtx)
		set(&s.wgDone, cs.wgDone)
		if cs.blocks && !s.blocks {
			s.blocks = true
			s.blockDesc = "a call to " + site.callee.Name() + ", which blocks on " + cs.blockDesc
			changed = true
		}
		// Translate the callee's receive-parameters through this site's
		// arguments: a channel object stays an object; the caller's own
		// parameter becomes a recvParam of the caller.
		for i := range cs.recvParams {
			if i >= len(site.args) {
				continue
			}
			obj := chanObjOf(lf.info, site.args[i])
			if obj == nil {
				continue
			}
			if pi, ok := lf.params[obj]; ok {
				if !s.recvParams[pi] {
					s.recvParams[pi] = true
					changed = true
				}
			} else if !s.recvObjs[obj] {
				s.recvObjs[obj] = true
				changed = true
			}
		}
		for obj := range cs.recvObjs {
			if !s.recvObjs[obj] {
				s.recvObjs[obj] = true
				changed = true
			}
		}
	}
	for _, ref := range lf.refs {
		cs := ix.summaryOf(ref)
		if cs == nil {
			continue
		}
		set(&s.observesCtx, cs.observesCtx)
		set(&s.wgDone, cs.wgDone)
	}
	return changed
}

// summaryOf returns the (possibly still-converging) summary of a module
// function, or nil for functions outside the loaded module.
func (ix *lifeIndex) summaryOf(fn *types.Func) *lifeSummary {
	if lf := ix.funcs[fn]; lf != nil {
		return lf.summary
	}
	return nil
}

// declOf returns the declaration record of a module function, or nil.
func (ix *lifeIndex) declOf(fn *types.Func) *lifeFunc {
	if fn == nil {
		return nil
	}
	return ix.funcs[funcOrigin(fn)]
}

// summarizeLifecycle computes the intraprocedural (base) summary of body:
// direct signals and direct blocking operations, with nested function
// literals excluded. params maps the function's own parameter objects to
// their positional index, used to classify receives from parameters.
func summarizeLifecycle(info *types.Info, body *ast.BlockStmt, params map[types.Object]int) *lifeSummary {
	s := newLifeSummary()
	recordRecv := func(e ast.Expr) {
		obj := chanObjOf(info, e)
		if obj == nil {
			return
		}
		if i, ok := params[obj]; ok {
			s.recvParams[i] = true
		} else {
			s.recvObjs[obj] = true
		}
	}
	// Signal pass: includes deferred statements (a `defer wg.Done()` is
	// the canonical join), excludes nested function literals.
	inspectSkippingFuncLits(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ForStmt:
			s.hasLoop = true
		case *ast.RangeStmt:
			s.hasLoop = true
			if isChanExpr(info, n.X) {
				recordRecv(n.X)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isChanExpr(info, n.X) {
				recordRecv(n.X)
			}
		case *ast.CallExpr:
			fn := mpproto.Callee(info, n)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			switch {
			case fn.Pkg().Path() == "context" && (fn.Name() == "Done" || fn.Name() == "Err"):
				s.observesCtx = true
			case isWaitGroupMethod(fn, "Done"):
				s.wgDone = true
			}
		}
	})
	// Blocking pass: excludes defers and go statements (they run at other
	// program points) on top of the function-literal exclusion.
	scanBlocking(info, body, func(pos token.Pos, desc string) {
		if !s.blocks {
			s.blocks = true
			s.blockDesc = desc
		}
	})
	return s
}

// scanBlocking walks n and reports every potentially blocking operation:
// channel sends and receives (including range-over-channel), select
// statements without a default clause, and blocking calls per
// blockingCall. It does not descend into function literals, deferred
// statements, go statements, or the communication clauses of a select
// (those block — or don't — at the select dispatch, which is reported as
// a unit).
func scanBlocking(info *types.Info, n ast.Node, report func(pos token.Pos, desc string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				report(n.Pos(), "a select with no default case")
			}
			for _, clause := range n.Body.List {
				for _, st := range clause.(*ast.CommClause).Body {
					scanBlocking(info, st, report)
				}
			}
			return false
		case *ast.SendStmt:
			report(n.Arrow, "a channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.OpPos, "a channel receive")
			}
		case *ast.RangeStmt:
			if isChanExpr(info, n.X) {
				report(n.X.Pos(), "a range over a channel")
			}
		case *ast.CallExpr:
			if desc, ok := blockingCall(info, n); ok {
				report(n.Pos(), desc)
			}
		}
		return true
	})
}

// blockingCall classifies call as a known blocking operation: an mp
// protocol op, sync.WaitGroup.Wait, time.Sleep, or blocking net methods
// and dials. sync.Cond.Wait is deliberately excluded —
// it releases its associated mutex while parked, so holding that mutex
// across it is the intended protocol, not a deadlock.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if op := mpproto.Classify(info, call); op != nil {
		return "mp " + op.Name, true
	}
	fn := mpproto.Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "sync":
		if isWaitGroupMethod(fn, "Wait") {
			return "sync.WaitGroup.Wait", true
		}
	case "time":
		if name == "Sleep" {
			return "time.Sleep", true
		}
	case "net":
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			switch name {
			case "Read", "Write", "Accept", "ReadFrom", "WriteTo":
				return "net " + name, true
			}
		} else {
			switch name {
			case "Dial", "DialTimeout", "DialIP", "DialTCP", "DialUDP":
				return "net." + name, true
			}
		}
	}
	return "", false
}

// isWaitGroupMethod reports whether fn is sync.WaitGroup's method name.
func isWaitGroupMethod(fn *types.Func, name string) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}

// selectHasDefault reports whether s carries a default clause.
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, clause := range s.Body.List {
		if clause.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// chanObjOf resolves e to the variable or field object it names (the
// identity channels are tracked by), or nil for anything more dynamic.
func chanObjOf(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return objOf(info, e)
	case *ast.SelectorExpr:
		return objOf(info, e.Sel)
	}
	return nil
}

// isChanExpr reports whether e's type is a channel.
func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Chan)
	return ok
}

// fieldParamObjects maps the parameter objects of params to positional
// indices; the *ast.FuncType generalization of mpproto's paramObjects,
// usable for function literals as well as declarations.
func fieldParamObjects(info *types.Info, params *ast.FieldList) map[types.Object]int {
	out := map[types.Object]int{}
	if params == nil {
		return out
	}
	i := 0
	for _, field := range params.List {
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

// summarizeGoBody summarizes a function literal spawned at a go
// statement: its base summary plus one folding round over its direct call
// sites and references. One round suffices because the index summaries
// are already transitively closed by the fixpoint.
func (ix *lifeIndex) summarizeGoBody(info *types.Info, lit *ast.FuncLit) *lifeSummary {
	lf := &lifeFunc{
		info:   info,
		params: fieldParamObjects(info, lit.Type.Params),
	}
	lf.summary = summarizeLifecycle(info, lit.Body, lf.params)
	lf.collectEdges(lit.Body)
	ix.absorb(lf)
	return lf.summary
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"parroute/internal/mpproto"
)

// The lock-across-blocking analyzer: a sync.Mutex/RWMutex provably held
// across a blocking operation is a deadlock risk — the blocked holder
// stalls every other locker, and if any of them is the party that would
// have unblocked the operation, the program wedges. Blocking operations
// are the scanBlocking set (channel send/recv, select without default,
// range over a channel, mp ops, WaitGroup.Wait, net I/O, time.Sleep)
// plus calls to module functions whose lifecycle summary says they block.
//
// Held-ness is a forward dataflow over the CFG: Lock/RLock adds the mutex
// object, Unlock/RUnlock removes it, and a deferred Unlock keeps the
// mutex held to function end (which is exactly the risky shape). The join
// is a union — held on either incoming path counts — which over-reports
// conditional locking; the codebase has none, and a reasoned
// //lint:allow is the escape hatch for protocol-guaranteed non-blocking
// sends (see internal/mp/virtual.go).

var analyzerLockAcrossBlocking = &Analyzer{
	Name: "lock-across-blocking",
	Doc:  "a mutex provably held across a blocking operation (channel, select, mp op, network I/O) is flagged as a deadlock risk",
	Run:  runLockAcrossBlocking,
}

// lockFacts is the set of mutex objects held at a program point, mapping
// the object to a display name for diagnostics.
type lockFacts map[types.Object]string

type lockFlow struct {
	info *types.Info
}

func (lf *lockFlow) Bottom() lockFacts { return lockFacts{} }

func (lf *lockFlow) Join(a, b lockFacts) lockFacts {
	out := make(lockFacts, len(a)+len(b))
	for o, n := range a {
		out[o] = n
	}
	for o, n := range b {
		out[o] = n
	}
	return out
}

func (lf *lockFlow) Equal(a, b lockFacts) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if _, ok := b[o]; !ok {
			return false
		}
	}
	return true
}

func (lf *lockFlow) Transfer(b *Block, in lockFacts) lockFacts {
	out := in
	copied := false
	mutate := func() lockFacts {
		if !copied {
			out = lf.Join(in, nil)
			copied = true
		}
		return out
	}
	for _, s := range b.Stmts {
		lf.step(s, mutate)
	}
	return out
}

// step applies the lock effect of one statement, fetching a mutable fact
// set from mutate only when there is an effect to apply.
func (lf *lockFlow) step(s ast.Stmt, mutate func() lockFacts) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return
	}
	obj, name, locks := lf.lockOp(call)
	if obj == nil {
		return
	}
	if locks {
		mutate()[obj] = name
	} else {
		delete(mutate(), obj)
	}
}

// lockOp classifies call as a mutex acquire (Lock/RLock) or release
// (Unlock/RUnlock), returning the mutex object and a display name.
func (lf *lockFlow) lockOp(call *ast.CallExpr) (types.Object, string, bool) {
	fn := mpproto.Callee(lf.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	var locks bool
	switch fn.Name() {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
		locks = false
	default:
		return nil, "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	obj := chanObjOf(lf.info, sel.X)
	if obj == nil {
		return nil, "", false
	}
	return obj, exprText(sel.X), locks
}

// exprText renders a short display form of a mutex expression (m.mu, mu).
func exprText(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	}
	return "mutex"
}

func runLockAcrossBlocking(p *Pass) {
	ix := p.Mod.lifecycleIndex()
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockBlocking(p, ix, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkLockBlocking(p, ix, lit.Body)
				}
				return true
			})
		}
	}
}

func checkLockBlocking(p *Pass, ix *lifeIndex, body *ast.BlockStmt) {
	// Quick reject: a body that never locks needs no CFG.
	locksAny := false
	inspectSkippingFuncLits(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := mpproto.Callee(p.Pkg.Info, call); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "sync" && (fn.Name() == "Lock" || fn.Name() == "RLock") {
				locksAny = true
			}
		}
	})
	if !locksAny {
		return
	}
	g := BuildCFG(body)
	fl := &lockFlow{info: p.Pkg.Info}
	res := SolveForward[lockFacts](g, fl)
	for _, b := range g.Blocks {
		facts := fl.Join(res.In[b], nil)
		for i, s := range b.Stmts {
			if i == 0 && b.IsSelectClause {
				// The chosen comm statement already unblocked; whether the
				// select could block was decided at the dispatch block.
				continue
			}
			if len(facts) > 0 {
				reportBlockingUnder(p, ix, s, facts)
			}
			fl.step(s, func() lockFacts { return facts })
		}
		if len(facts) == 0 {
			continue
		}
		if b.Select != nil && !selectHasDefault(b.Select) {
			reportLockHeld(p, b.Select.Pos(), facts, "a select with no default case")
		}
		if b.Cond != nil {
			if b.IsLoopHead && isChanExpr(p.Pkg.Info, b.Cond) {
				reportLockHeld(p, b.Cond.Pos(), facts, "a range over a channel")
			} else {
				scanBlocking(p.Pkg.Info, b.Cond, func(pos token.Pos, desc string) {
					reportLockHeld(p, pos, facts, desc)
				})
			}
		}
	}
}

// reportBlockingUnder reports every blocking operation in s — direct ops
// via scanBlocking, plus calls into module functions that block per their
// lifecycle summary.
func reportBlockingUnder(p *Pass, ix *lifeIndex, s ast.Stmt, held lockFacts) {
	reported := map[token.Pos]bool{}
	scanBlocking(p.Pkg.Info, s, func(pos token.Pos, desc string) {
		reported[pos] = true
		reportLockHeld(p, pos, held, desc)
	})
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if reported[n.Pos()] {
				return true
			}
			if _, direct := blockingCall(p.Pkg.Info, n); direct {
				return true
			}
			if lf := ix.declOf(mpproto.Callee(p.Pkg.Info, n)); lf != nil && lf.summary.blocks {
				reportLockHeld(p, n.Pos(), held, "a call to "+lf.fn.Name()+", which blocks on "+lf.summary.blockDesc)
			}
		}
		return true
	})
}

func reportLockHeld(p *Pass, pos token.Pos, held lockFacts, what string) {
	names := make([]string, 0, len(held))
	for _, n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	p.Reportf(pos, "mutex %s is held across %s: a blocked operation under a lock stalls every other locker (deadlock risk)", names[0], what)
}

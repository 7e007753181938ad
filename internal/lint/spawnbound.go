package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"parroute/internal/mpproto"
)

// The unbounded-spawn analyzer: a `go` statement inside a loop with no
// visible iteration bound and no admission control spawns an unbounded
// number of goroutines under load — the invariant a service-tier worker
// pool must never violate. A loop is considered bounded when its
// condition is a plain comparison (a counter bound); a `for {}`, a loop
// whose condition is something more dynamic, or a range over a channel is
// treated as unbounded.
//
// An unbounded loop may still spawn if the spawn is admission-controlled
// by a semaphore channel: some channel must carry an acquire operation in
// the loop body outside the go statement and the opposite-direction
// release on the same channel inside the spawned function (either
// polarity — send-then-receive or receive-then-send — is accepted, and
// the release may live in a defer or nested literal). Worker pools that
// spawn a fixed count inside a bounded loop need no annotation at all.

var analyzerUnboundedSpawn = &Analyzer{
	Name: "unbounded-spawn",
	Doc:  "a go statement inside an unbounded loop needs a visible admission bound (semaphore channel or a counter-bounded loop)",
	Run:  runUnboundedSpawn,
}

func runUnboundedSpawn(p *Pass) {
	ix := p.Mod.lifecycleIndex()
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkSpawns(p, ix, fd.Body, nil)
		}
	}
}

// spawnLoop is one enclosing loop considered unbounded, with the body the
// semaphore check scans.
type spawnLoop struct {
	body *ast.BlockStmt
	why  string
}

// walkSpawns walks stmts tracking the stack of enclosing unbounded loops.
// The stack resets at function-literal boundaries: a literal runs at its
// caller's pleasure, so a spawn inside it is judged against the literal's
// own loops (and a literal *defined* per iteration that spawns is still
// caught, because the GoStmt is lexically inside the loop).
func walkSpawns(p *Pass, ix *lifeIndex, n ast.Node, stack []spawnLoop) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			walkSpawns(p, ix, n.Body, nil)
			return false
		case *ast.ForStmt:
			inner := stack
			if why := forUnbounded(n); why != "" {
				inner = append(stack[:len(stack):len(stack)], spawnLoop{body: n.Body, why: why})
			}
			if n.Init != nil {
				walkSpawns(p, ix, n.Init, stack)
			}
			walkSpawns(p, ix, n.Body, inner)
			return false
		case *ast.RangeStmt:
			inner := stack
			if isChanExpr(p.Pkg.Info, n.X) {
				inner = append(stack[:len(stack):len(stack)], spawnLoop{body: n.Body, why: "a range over a channel"})
			}
			walkSpawns(p, ix, n.Body, inner)
			return false
		case *ast.GoStmt:
			if len(stack) == 0 {
				return true
			}
			loop := stack[len(stack)-1]
			if !spawnHasSemaphore(p, ix, loop.body, n) {
				p.Reportf(n.Pos(), "go statement inside %s with no visible spawn bound: acquire a semaphore slot before spawning or use a fixed worker pool", loop.why)
			}
			return true
		}
		return true
	})
}

// forUnbounded classifies a for statement, returning a description when
// the loop has no statically visible iteration bound.
func forUnbounded(s *ast.ForStmt) string {
	if s.Cond == nil {
		return "a for loop with no condition"
	}
	if be, ok := ast.Unparen(s.Cond).(*ast.BinaryExpr); ok {
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ, token.EQL:
			return ""
		}
	}
	return "a for loop whose condition is not a counter bound"
}

// chanOps collects the channel objects sent on / received from within n.
// Descending into function literals and defers is deliberate here: the
// semaphore release conventionally lives in `defer func() { <-sem }()`.
func chanOps(p *Pass, n ast.Node, skip ast.Node, sends, recvs map[types.Object]bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == skip {
			return false
		}
		switch m := m.(type) {
		case *ast.SendStmt:
			if obj := chanObjOf(p.Pkg.Info, m.Chan); obj != nil {
				sends[obj] = true
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				if obj := chanObjOf(p.Pkg.Info, m.X); obj != nil {
					recvs[obj] = true
				}
			}
		}
		return true
	})
}

// spawnHasSemaphore reports whether gs inside loopBody is
// admission-controlled: a channel with an acquire in the loop outside the
// go statement and the opposite operation inside the spawned function.
func spawnHasSemaphore(p *Pass, ix *lifeIndex, loopBody *ast.BlockStmt, gs *ast.GoStmt) bool {
	loopSends := map[types.Object]bool{}
	loopRecvs := map[types.Object]bool{}
	chanOps(p, loopBody, gs, loopSends, loopRecvs)

	bodySends := map[types.Object]bool{}
	bodyRecvs := map[types.Object]bool{}
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		chanOps(p, lit.Body, nil, bodySends, bodyRecvs)
	} else if lf := ix.declOf(mpproto.Callee(p.Pkg.Info, gs.Call)); lf != nil && lf.decl != nil {
		chanOps(p, lf.decl.Body, nil, bodySends, bodyRecvs)
	}

	for obj := range loopSends {
		if bodyRecvs[obj] {
			return true
		}
	}
	for obj := range loopRecvs {
		if bodySends[obj] {
			return true
		}
	}
	return false
}

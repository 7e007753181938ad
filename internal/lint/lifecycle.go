package lint

import (
	"go/ast"
	"strings"

	"parroute/internal/mpproto"
)

// The goroutine-lifecycle analyzer: every `go` statement in library code
// must have a provable termination signal reaching the spawned function,
// so the goroutine-leak freedom PR 5 proved dynamically holds by
// construction as the service arc multiplies long-lived goroutines.
//
// A spawn passes if any of these holds, checked through the
// interprocedural summaries of callgraph.go:
//
//  1. ctx observation — the spawned body (or a callee) calls Done/Err on
//     a context.Context, so cancellation can reach it;
//  2. WaitGroup join — the body (or a callee) calls sync.WaitGroup.Done,
//     so whoever Waits owns its lifetime;
//  3. closed channel — the body receives from a channel object the
//     module provably closes somewhere (receive parameters are
//     translated through the spawn-site arguments);
//  4. engine-owned shutdown — the spawned call is an mp protocol op,
//     whose abort machinery releases blocked ranks;
//  5. bounded body — the body has no loops and no blocking operations,
//     so it runs off the end on its own.
//
// Spawns of dynamic function values (a func-typed variable, field, or
// parameter) are opaque to the analyzer and reported as such: wrap the
// value in a literal that carries a signal, or suppress with a reason.

var analyzerGoroutineLifecycle = &Analyzer{
	Name: "goroutine-lifecycle",
	Doc:  "every go statement in library code needs a provable termination signal (ctx select, closed channel, WaitGroup join, engine-owned op, or a bounded body)",
	Run:  runGoroutineLifecycle,
}

func runGoroutineLifecycle(p *Pass) {
	// Library scope, like panics.go: commands own their process lifetime.
	if !strings.HasPrefix(p.Pkg.Path, "parroute/internal/") {
		return
	}
	ix := p.Mod.lifecycleIndex()
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				checkSpawn(p, ix, gs)
			}
			return true
		})
	}
}

func checkSpawn(p *Pass, ix *lifeIndex, gs *ast.GoStmt) {
	call := gs.Call
	// Engine-owned shutdown: mp ops are released by the machine's abort
	// path, which the cancellation tier tests end to end.
	if mpproto.Classify(p.Pkg.Info, call) != nil {
		return
	}
	var sum *lifeSummary
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		sum = ix.summarizeGoBody(p.Pkg.Info, lit)
	} else if fn := mpproto.Callee(p.Pkg.Info, call); fn != nil {
		lf := ix.declOf(fn)
		if lf == nil {
			// Out-of-module function: assumed to terminate, same trust the
			// summaries extend to stdlib calls.
			return
		}
		sum = lf.summary
	} else {
		p.Reportf(gs.Pos(), "goroutine spawns an opaque function value: the analyzer cannot prove it terminates; spawn a literal that selects on a ctx or joins a WaitGroup instead")
		return
	}
	if sum.observesCtx || sum.wgDone {
		return
	}
	for obj := range sum.recvObjs {
		if ix.closed[obj] {
			return
		}
	}
	for i := range sum.recvParams {
		if i < len(call.Args) {
			if obj := chanObjOf(p.Pkg.Info, call.Args[i]); obj != nil && ix.closed[obj] {
				return
			}
		}
	}
	if !sum.hasLoop && !sum.blocks {
		// Bounded body: no loops, nothing blocking — it runs off the end.
		return
	}
	why := "loops"
	if sum.blocks {
		why = "blocks on " + sum.blockDesc
	}
	p.Reportf(gs.Pos(), "goroutine has no provable termination signal (body %s): select on a ctx, receive from a channel the module closes, or join it with a WaitGroup", why)
}

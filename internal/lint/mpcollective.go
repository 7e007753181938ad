package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"parroute/internal/mpproto"
)

// analyzerCollectiveCongruence enforces the first mpproto rule: every rank
// of a communicator must execute the same sequence of collective
// operations (mp.Gather/Alltoall/…/Comm.Barrier). A collective that is
// control-dependent on a rank-derived condition — `if c.Rank() == 0 {
// Barrier() }`, or an early return on one rank before a barrier the
// others reach — deadlocks the whole machine, as the virtual engine's
// deadlock tests demonstrate dynamically.
//
// The check is path-sensitive over the CFG: at every branch whose
// condition is rank-derived (directly via Rank(), or through local
// variables tracked by the rank-taint dataflow), the analyzer enumerates
// the collective-event sequences reachable from each arm to the function
// exit and reports when the arms disagree. Calls to module helpers are
// expanded one level deep using the protocol index, so a rank-guarded
// call to a helper that gathers (the rawGather path) is still caught.
var analyzerCollectiveCongruence = &Analyzer{
	Name: "collective-congruence",
	Doc:  "forbid collectives (Gather/Alltoall/Barrier/…) control-dependent on rank-derived conditions",
	Run:  runCollectiveCongruence,
}

// Path-enumeration bounds: a branch whose arms exceed them is skipped
// rather than guessed at (the err-return pruning below keeps real
// protocol code far under these).
const (
	maxCongruencePaths  = 256
	maxCongruenceEvents = 64
)

func runCollectiveCongruence(p *Pass) {
	idx := p.Mod.protocolIndex()
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCongruence(p, idx, fd)
		}
	}
}

func checkCongruence(p *Pass, idx *protoIndex, fd *ast.FuncDecl) {
	g, flow, rf := solveRankTaint(p.Pkg.Info, fd)

	// Precompute each block's ordered event list (helpers expanded one
	// level), whether any event is reachable from it, and whether it ends
	// in an error-abort return.
	events := make([][]string, len(g.Blocks))
	abort := make([]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		events[b.Index] = blockEvents(p, idx, b)
		abort[b.Index] = endsInErrorAbort(p, idx, b)
	}
	reach := eventReachability(g, events)

	for _, b := range g.Blocks {
		if b.Cond == nil || len(b.Succs) < 2 {
			continue
		}
		if !rf.mentionsRank(b.Cond, flow.Out[b]) {
			continue
		}
		// Enumerate each arm's event-sequence set.
		arms := make([]map[string]bool, len(b.Succs))
		complete := true
		for i, succ := range b.Succs {
			e := &seqEnum{g: g, events: events, reach: reach, abort: abort}
			e.walk(succ, map[*Block]bool{}, nil)
			if e.overflow {
				complete = false
				break
			}
			arms[i] = e.out
		}
		if !complete {
			continue
		}
		// An arm whose every path aborts with an error never completes the
		// protocol anyway (the first worker error tears the machine down),
		// so it is exempt from congruence.
		for i := 1; i < len(arms); i++ {
			if len(arms[0]) == 0 || len(arms[i]) == 0 {
				continue
			}
			if !sameSeqSet(arms[0], arms[i]) {
				p.Reportf(b.Cond.Pos(),
					"collective sequence depends on a rank-derived condition: one branch performs %s, another %s — every rank must execute the same collectives",
					describeSeqDiff(arms[i], arms[0]), describeSeqDiff(arms[0], arms[i]))
				break
			}
		}
	}
}

// blockEvents lists the collective events of b's statements in source
// order: direct mp collective/Barrier calls plus the one-level expansion
// of module helpers with a non-empty event summary.
func blockEvents(p *Pass, idx *protoIndex, b *Block) []string {
	var out []string
	for _, s := range b.Stmts {
		inspectSkippingFuncLits(s, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if op := mpproto.Classify(p.Pkg.Info, call); op != nil {
				if op.Collective {
					out = append(out, op.Name)
				}
				return
			}
			fn := mpproto.Callee(p.Pkg.Info, call)
			if fn == nil {
				return
			}
			if fp := idx.funcs[funcOrigin(fn)]; fp != nil && len(fp.events) > 0 {
				out = append(out, fp.events...)
			}
		})
	}
	return out
}

// endsInErrorAbort reports whether b terminates in a return that
// propagates a definite error — `return err`, `return nil, fmt.Errorf(…)`
// — rather than completing normally. Such paths tear the whole machine
// down (mp.Run aborts on the first worker error), so they are exempt from
// sequence congruence. A `return nil`, a returned mp operation
// (`return c.Barrier()`), or a returned module helper that performs
// collectives (`return r.boundaryStitch()`) all count as normal protocol
// paths, not aborts.
func endsInErrorAbort(p *Pass, idx *protoIndex, b *Block) bool {
	info := p.Pkg.Info
	if len(b.Stmts) == 0 {
		return false
	}
	ret, ok := b.Stmts[len(b.Stmts)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) == 0 {
		return false
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	t := info.TypeOf(last)
	if tup, ok := t.(*types.Tuple); ok && tup.Len() > 0 {
		t = tup.At(tup.Len() - 1).Type()
	}
	if t == nil || !types.Implements(t, errorType) {
		return false // includes `return nil`: untyped nil is not error-typed
	}
	if call, ok := last.(*ast.CallExpr); ok {
		if mpproto.Classify(info, call) != nil {
			return false
		}
		if fn := mpproto.Callee(info, call); fn != nil {
			if fp := idx.funcs[funcOrigin(fn)]; fp != nil && len(fp.events) > 0 {
				return false
			}
		}
	}
	return true
}

// eventReachability computes, per block, whether any collective event is
// reachable from it along forward or back edges.
func eventReachability(g *CFG, events [][]string) []bool {
	reach := make([]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		reach[b.Index] = len(events[b.Index]) > 0
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			if reach[b.Index] {
				continue
			}
			for _, s := range append(append([]*Block{}, b.Succs...), b.Back...) {
				if reach[s.Index] {
					reach[b.Index] = true
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// seqEnum enumerates collective-event sequences from a start block to the
// function exit. Each path visits a block at most once (back edges are
// followed, so one loop iteration's events are observed, but cycles are
// cut), and paths are pruned as soon as no further event is reachable —
// which collapses the err-return ladders of real protocol code instead of
// exploding on them.
type seqEnum struct {
	g        *CFG
	events   [][]string
	reach    []bool
	abort    []bool
	out      map[string]bool
	paths    int
	overflow bool
}

func (e *seqEnum) emit(seq []string) {
	if e.out == nil {
		e.out = map[string]bool{}
	}
	e.paths++
	if e.paths > maxCongruencePaths {
		e.overflow = true
		return
	}
	e.out[strings.Join(seq, " ")] = true
}

func (e *seqEnum) walk(b *Block, onPath map[*Block]bool, seq []string) {
	if e.overflow {
		return
	}
	if e.abort[b.Index] {
		return // error-abort path: tears the machine down, exempt
	}
	if !e.reach[b.Index] {
		e.emit(seq)
		return
	}
	seq = append(seq, e.events[b.Index]...)
	if len(seq) > maxCongruenceEvents {
		e.overflow = true
		return
	}
	onPath[b] = true
	defer delete(onPath, b)
	advanced := false
	for _, s := range b.Succs {
		if onPath[s] {
			continue
		}
		advanced = true
		e.walk(s, onPath, seq)
	}
	for _, s := range b.Back {
		if !onPath[s] {
			advanced = true
			e.walk(s, onPath, seq)
			continue
		}
		// The loop header is already on this path: real execution keeps
		// iterating and eventually leaves through the header's forward
		// exits, so continue there without replaying the header.
		for _, fs := range s.Succs {
			if onPath[fs] {
				continue
			}
			advanced = true
			e.walk(fs, onPath, seq)
		}
	}
	if !advanced {
		e.emit(seq)
	}
}

func sameSeqSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// describeSeqDiff renders a representative sequence present in a but not
// in b (or a's smallest sequence when the sets only differ the other
// way), for the diagnostic message.
func describeSeqDiff(a, b map[string]bool) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pick := ""
	picked := false
	for _, k := range keys {
		if !b[k] {
			pick, picked = k, true
			break
		}
	}
	if !picked && len(keys) > 0 {
		pick = keys[0]
	}
	if pick == "" {
		return "[no collectives]"
	}
	return fmt.Sprintf("[%s]", pick)
}

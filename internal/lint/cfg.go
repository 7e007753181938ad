package lint

import (
	"go/ast"
	"go/token"
)

// This file builds the lightweight control-flow graphs the mpproto
// analyzers reason over. A CFG is built per function body from the plain
// go/ast: straight-line statements accumulate into a Block, and
// if/for/range/switch/select statements end the block with a condition
// (where one exists) and fan out into successor blocks. Function literals
// are opaque — their bodies get their own CFGs when the caller asks for
// them — because a closure's execution time is not the enclosing
// function's program point.
//
// Back edges (loop body → loop header) are recorded separately from
// forward successors, so path-sensitive clients can treat every CFG as a
// DAG (each loop body considered at most once per path) without running a
// dominator analysis first.

// Block is one basic block: a maximal run of straight-line statements,
// optionally terminated by a branch condition.
type Block struct {
	Index int
	// Stmts are the simple statements of the block, in execution order.
	// Control statements (if/for/switch/...) never appear here; their
	// initializers and conditions are lifted into Cond/Stmts of the
	// blocks the builder creates for them.
	Stmts []ast.Stmt
	// Cond is the branch or loop condition evaluated after Stmts, nil for
	// unconditional blocks. For a range loop it is the ranged-over
	// expression; for a type switch, the switch expression.
	Cond ast.Expr
	// Succs are the forward successors. Back are back edges to loop
	// headers; they are kept out of Succs so forward walks terminate.
	Succs []*Block
	Back  []*Block
	Preds []*Block
	// IsLoopHead marks loop header blocks (the target of a back edge).
	IsLoopHead bool
}

// CFG is the control-flow graph of one function body. Entry is the first
// block executed; Exit is the single synthetic block every return (and
// the fall-off-the-end path) reaches.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// cfgBuilder carries the construction state.
type cfgBuilder struct {
	g *CFG
	// breakTo / continueTo are the innermost targets for unlabeled
	// break/continue statements.
	breakTo    []*Block
	continueTo []*Block
	// labels maps a label name to its targets: the labeled statement's
	// entry block (for goto) plus, when the labeled statement is a
	// loop/switch/select, the break and continue destinations.
	labels map[string]*labelTarget
	// pendingLabel carries a just-seen label into the construct it names,
	// so that construct can register its break/continue targets. stmt()
	// consumes it immediately, which keeps a label from leaking onto a
	// statement nested deeper than the labeled one.
	pendingLabel string
	// gotos are forward gotos whose label has not been declared yet; they
	// are patched with a forward edge once the whole body is built. Go's
	// scoping rules (a goto may not jump into a block) guarantee the
	// patched edge cannot create a forward cycle.
	gotos []pendingGoto
}

type labelTarget struct {
	entry *Block // first block of the labeled statement (goto target)
	brk   *Block // labeled-break destination, nil unless loop/switch/select
	cont  *Block // labeled-continue destination, nil unless loop
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG constructs the CFG of body. A nil body (declared-only
// function) yields a two-block graph with Entry wired to Exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}, labels: make(map[string]*labelTarget)}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	last := b.g.Entry
	if body != nil {
		last = b.stmtList(body.List, b.g.Entry)
	}
	b.edge(last, b.g.Exit)
	for _, pg := range b.gotos {
		if lt := b.labels[pg.label]; lt != nil {
			b.edge(pg.from, lt.entry)
		} else {
			// Undeclared label cannot type-check; degrade to a terminator.
			b.edge(pg.from, b.g.Exit)
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge adds cur → next unless cur is nil (unreachable after a terminator).
func (b *cfgBuilder) edge(cur, next *Block) {
	if cur == nil || cur == b.g.Exit {
		return
	}
	cur.Succs = append(cur.Succs, next)
	next.Preds = append(next.Preds, cur)
}

// backEdge records cur → head as a loop back edge.
func (b *cfgBuilder) backEdge(cur, head *Block) {
	if cur == nil {
		return
	}
	cur.Back = append(cur.Back, head)
	head.IsLoopHead = true
}

// stmtList threads the statements through the graph starting at cur and
// returns the block control falls out of, or nil when the list always
// terminates (return/branch).
func (b *cfgBuilder) stmtList(stmts []ast.Stmt, cur *Block) *Block {
	for _, s := range stmts {
		cur = b.stmt(s, cur)
		if cur == nil {
			return nil
		}
	}
	return cur
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *Block) *Block {
	// Consume the pending label here so only the directly-labeled
	// statement sees it; the loop/switch/select cases below register
	// their break/continue targets under it.
	label := b.pendingLabel
	b.pendingLabel = ""

	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(s.List, cur)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		cur.Cond = s.Cond
		thenB := b.newBlock()
		b.edge(cur, thenB)
		thenEnd := b.stmtList(s.Body.List, thenB)
		join := b.newBlock()
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cur, elseB)
			elseEnd := b.stmt(s.Else, elseB)
			b.edge(elseEnd, join)
		} else {
			b.edge(cur, join)
		}
		b.edge(thenEnd, join)
		if len(join.Preds) == 0 {
			return nil // both arms terminate
		}
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		head.Cond = s.Cond // nil for `for {}`
		exit := b.newBlock()
		if s.Cond != nil {
			b.edge(head, exit)
		}
		body := b.newBlock()
		b.edge(head, body)
		b.setLabelTargets(label, exit, head)
		b.pushLoop(exit, head)
		bodyEnd := b.stmtList(s.Body.List, body)
		b.popLoop()
		if bodyEnd != nil && s.Post != nil {
			bodyEnd.Stmts = append(bodyEnd.Stmts, s.Post)
		}
		b.backEdge(bodyEnd, head)
		if len(exit.Preds) == 0 && s.Cond == nil {
			return nil // `for {}` with no break never exits
		}
		return exit

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(cur, head)
		head.Cond = s.X
		if s.Key != nil || s.Value != nil {
			// Model the per-iteration bindings as an assignment so
			// dataflow sees the loop variables being written.
			head.Stmts = append(head.Stmts, rangeAssign(s))
		}
		exit := b.newBlock()
		b.edge(head, exit)
		body := b.newBlock()
		b.edge(head, body)
		b.setLabelTargets(label, exit, head)
		b.pushLoop(exit, head)
		bodyEnd := b.stmtList(s.Body.List, body)
		b.popLoop()
		b.backEdge(bodyEnd, head)
		return exit

	case *ast.SwitchStmt:
		return b.switchStmt(cur, s.Init, s.Tag, s.Body, label)

	case *ast.TypeSwitchStmt:
		var tag ast.Expr
		if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			tag = as.Rhs[0]
		} else if es, ok := s.Assign.(*ast.ExprStmt); ok {
			tag = es.X
		}
		return b.switchStmt(cur, s.Init, tag, s.Body, label)

	case *ast.SelectStmt:
		// cur dispatches: one successor per comm clause (its block starts
		// with the comm statement), one more for a default clause.
		if len(s.Body.List) == 0 {
			// `select {}` blocks forever: a terminator with no successors.
			return nil
		}
		join := b.newBlock()
		b.setLabelTargets(label, join, nil)
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			caseB := b.newBlock()
			b.edge(cur, caseB)
			if cc.Comm != nil {
				caseB.Stmts = append(caseB.Stmts, cc.Comm)
			}
			b.pushBreak(join)
			end := b.stmtList(cc.Body, caseB)
			b.popBreak()
			b.edge(end, join)
		}
		if len(join.Preds) == 0 {
			return nil
		}
		return join

	case *ast.ReturnStmt:
		cur.Stmts = append(cur.Stmts, s)
		b.edge(cur, b.g.Exit)
		return nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			t := b.topBreak()
			if s.Label != nil {
				if lt := b.labels[s.Label.Name]; lt != nil {
					t = lt.brk
				}
			}
			if t != nil {
				b.edge(cur, t)
				return nil
			}
		case token.CONTINUE:
			t := b.topContinue()
			if s.Label != nil {
				if lt := b.labels[s.Label.Name]; lt != nil {
					t = lt.cont
				}
			}
			if t != nil {
				b.backEdge(cur, t)
				return nil
			}
		case token.GOTO:
			if s.Label != nil {
				if lt := b.labels[s.Label.Name]; lt != nil {
					// The label is already declared, so this jumps backward:
					// record it as a loop back edge so forward walks stay
					// acyclic.
					b.backEdge(cur, lt.entry)
				} else {
					// Forward goto; patched with a forward edge in BuildCFG
					// once the label's entry block exists.
					b.gotos = append(b.gotos, pendingGoto{from: cur, label: s.Label.Name})
				}
				return nil
			}
		}
		// fallthrough token: control continues into the next case, which
		// the switch builder has already wired to the join; treat as a
		// plain fall-off so the clause still reaches the join.
		return cur

	case *ast.LabeledStmt:
		// Give the labeled statement its own entry block so goto has a
		// stable target, then let the statement itself claim break and
		// continue destinations via pendingLabel.
		entry := b.newBlock()
		b.edge(cur, entry)
		b.labels[s.Label.Name] = &labelTarget{entry: entry}
		b.pendingLabel = s.Label.Name
		out := b.stmt(s.Stmt, entry)
		b.pendingLabel = ""
		return out

	default:
		// Assignments, declarations, expression statements, go, defer,
		// send, inc/dec: straight-line.
		cur.Stmts = append(cur.Stmts, s)
		return cur
	}
}

// switchStmt wires an (expression or type) switch: cur fans out to every
// case body, plus straight to the join when there is no default clause.
func (b *cfgBuilder) switchStmt(cur *Block, init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, label string) *Block {
	if init != nil {
		cur.Stmts = append(cur.Stmts, init)
	}
	cur.Cond = tag
	join := b.newBlock()
	b.setLabelTargets(label, join, nil)
	hasDefault := false
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		caseB := b.newBlock()
		b.edge(cur, caseB)
		b.pushBreak(join)
		end := b.stmtList(cc.Body, caseB)
		b.popBreak()
		b.edge(end, join)
	}
	if !hasDefault {
		b.edge(cur, join)
	}
	if len(join.Preds) == 0 {
		return nil
	}
	return join
}

// rangeAssign synthesizes `key, value := range-bindings` as an AssignStmt
// over the range expression, purely so dataflow transfer functions see the
// loop variables defined from s.X.
func rangeAssign(s *ast.RangeStmt) ast.Stmt {
	var lhs []ast.Expr
	if s.Key != nil {
		lhs = append(lhs, s.Key)
	}
	if s.Value != nil {
		lhs = append(lhs, s.Value)
	}
	return &ast.AssignStmt{Lhs: lhs, Tok: s.Tok, Rhs: []ast.Expr{s.X}}
}

// setLabelTargets records the break (and, for loops, continue)
// destinations of the labeled construct currently being built.
func (b *cfgBuilder) setLabelTargets(label string, brk, cont *Block) {
	if label == "" {
		return
	}
	if lt := b.labels[label]; lt != nil {
		lt.brk, lt.cont = brk, cont
	}
}

func (b *cfgBuilder) pushLoop(brk, cont *Block) {
	b.breakTo = append(b.breakTo, brk)
	b.continueTo = append(b.continueTo, cont)
}

func (b *cfgBuilder) popLoop() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
}

// pushBreak registers a break target without a continue target (switch
// and select bodies).
func (b *cfgBuilder) pushBreak(brk *Block) {
	b.breakTo = append(b.breakTo, brk)
	b.continueTo = append(b.continueTo, nil)
}

func (b *cfgBuilder) popBreak() { b.popLoop() }

func (b *cfgBuilder) topBreak() *Block {
	if len(b.breakTo) == 0 {
		return nil
	}
	return b.breakTo[len(b.breakTo)-1]
}

// topContinue skips over break-only scopes (switch/select) to the
// innermost enclosing loop.
func (b *cfgBuilder) topContinue() *Block {
	for i := len(b.continueTo) - 1; i >= 0; i-- {
		if b.continueTo[i] != nil {
			return b.continueTo[i]
		}
	}
	return nil
}

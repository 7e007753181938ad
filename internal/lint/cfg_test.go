package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses one function declaration and returns its body.
func parseBody(t *testing.T, fn string) *ast.BlockStmt {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", "package x\n"+fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// forwardReaches reports whether to is reachable from from over Succs
// only — the DAG view path-sensitive clients rely on.
func forwardReaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// assertForwardAcyclic fails if Succs (excluding Back) contain a cycle;
// the builder promises forward walks terminate without dominator math.
func assertForwardAcyclic(t *testing.T, g *CFG) {
	t.Helper()
	const white, grey, black = 0, 1, 2
	color := map[*Block]int{}
	var visit func(b *Block)
	visit = func(b *Block) {
		color[b] = grey
		for _, s := range b.Succs {
			switch color[s] {
			case grey:
				t.Fatalf("forward cycle through block %d -> %d", b.Index, s.Index)
			case white:
				visit(s)
			}
		}
		color[b] = black
	}
	for _, b := range g.Blocks {
		if color[b] == white {
			visit(b)
		}
	}
}

func TestBuildCFGNilBody(t *testing.T) {
	g := BuildCFG(nil)
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("nil body: Entry.Succs = %v, want [Exit]", g.Entry.Succs)
	}
}

func TestBuildCFGIfElse(t *testing.T) {
	g := BuildCFG(parseBody(t, `func f(a bool) int {
	x := 0
	if a {
		x = 1
	} else {
		x = 2
	}
	return x
}`))
	assertForwardAcyclic(t, g)
	if g.Entry.Cond == nil {
		t.Fatal("branch condition not recorded on the entry block")
	}
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("if/else fans out to %d successors, want 2", len(g.Entry.Succs))
	}
	for _, arm := range g.Entry.Succs {
		if !forwardReaches(arm, g.Exit) {
			t.Errorf("arm block %d does not reach Exit", arm.Index)
		}
	}
}

func TestBuildCFGTerminatingArms(t *testing.T) {
	g := BuildCFG(parseBody(t, `func f(a bool) int {
	if a {
		return 1
	}
	return 2
}`))
	assertForwardAcyclic(t, g)
	returns := 0
	for _, p := range g.Exit.Preds {
		if len(p.Stmts) > 0 {
			if _, ok := p.Stmts[len(p.Stmts)-1].(*ast.ReturnStmt); ok {
				returns++
			}
		}
	}
	if returns != 2 {
		t.Fatalf("Exit has %d return predecessors, want 2", returns)
	}
}

func TestBuildCFGForLoop(t *testing.T) {
	g := BuildCFG(parseBody(t, `func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`))
	assertForwardAcyclic(t, g)
	var head *Block
	for _, b := range g.Blocks {
		if b.IsLoopHead {
			if head != nil {
				t.Fatal("more than one loop head for a single loop")
			}
			head = b
		}
	}
	if head == nil {
		t.Fatal("no loop head marked")
	}
	if head.Cond == nil {
		t.Error("loop head has no condition")
	}
	backs := 0
	for _, b := range g.Blocks {
		for _, tgt := range b.Back {
			if tgt != head {
				t.Errorf("back edge from %d targets block %d, not the loop head", b.Index, tgt.Index)
			}
			backs++
		}
	}
	if backs != 1 {
		t.Errorf("got %d back edges, want 1", backs)
	}
	if !forwardReaches(g.Entry, g.Exit) {
		t.Error("Exit unreachable over forward edges")
	}
}

func TestBuildCFGBreakContinue(t *testing.T) {
	g := BuildCFG(parseBody(t, `func f(n int) {
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if i == 7 {
			break
		}
	}
}`))
	assertForwardAcyclic(t, g)
	backs := 0
	for _, b := range g.Blocks {
		backs += len(b.Back)
	}
	// The continue and the natural loop tail each produce a back edge.
	if backs != 2 {
		t.Errorf("got %d back edges, want 2 (continue + loop tail)", backs)
	}
	if !forwardReaches(g.Entry, g.Exit) {
		t.Error("Exit unreachable over forward edges")
	}
}

func TestBuildCFGSwitch(t *testing.T) {
	g := BuildCFG(parseBody(t, `func f(n int) int {
	switch n {
	case 1:
		return 10
	case 2:
		n++
	}
	return n
}`))
	assertForwardAcyclic(t, g)
	if g.Entry.Cond == nil {
		t.Error("switch tag not recorded as the block condition")
	}
	// Two case blocks plus the implicit no-default edge to the join.
	if len(g.Entry.Succs) != 3 {
		t.Fatalf("switch fans out to %d successors, want 3", len(g.Entry.Succs))
	}
}

func TestBuildCFGRangeLoop(t *testing.T) {
	g := BuildCFG(parseBody(t, `func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}`))
	assertForwardAcyclic(t, g)
	var head *Block
	for _, b := range g.Blocks {
		if b.IsLoopHead {
			head = b
		}
	}
	if head == nil {
		t.Fatal("range loop head not marked")
	}
	// The synthetic per-iteration binding must be visible to dataflow.
	found := false
	for _, s := range head.Stmts {
		if _, ok := s.(*ast.AssignStmt); ok {
			found = true
		}
	}
	if !found {
		t.Error("range bindings not modeled as an assignment on the head block")
	}
}

func TestBuildCFGInfiniteLoopNoBreak(t *testing.T) {
	g := BuildCFG(parseBody(t, `func f(ch chan int) {
	for {
		<-ch
	}
}`))
	// `for {}` with no break: Exit must not be reachable forward from the
	// loop, and the builder must still terminate.
	assertForwardAcyclic(t, g)
	if len(g.Exit.Preds) != 0 {
		t.Errorf("for{} without break: Exit has %d preds, want 0", len(g.Exit.Preds))
	}
}

func TestBuildCFGSelectDispatch(t *testing.T) {
	body := parseBody(t, `func f(a, b chan int) int {
	x := 0
	select {
	case v := <-a:
		x = v
	case b <- 1:
		x = 2
	default:
		x = 3
	}
	return x
}`)
	g := BuildCFG(body)
	assertForwardAcyclic(t, g)
	// The select adds no block of its own: the block it ends dispatches.
	dispatch := g.Entry
	// One successor per clause, including the default clause.
	if len(dispatch.Succs) != 3 {
		t.Fatalf("select dispatch has %d succs, want 3", len(dispatch.Succs))
	}
	comms := map[ast.Stmt]bool{}
	for _, clause := range body.List[1].(*ast.SelectStmt).Body.List {
		if cc := clause.(*ast.CommClause); cc.Comm != nil {
			comms[cc.Comm] = true
		}
	}
	comm := 0
	for _, s := range dispatch.Succs {
		if len(s.Stmts) > 0 && comms[s.Stmts[0]] {
			comm++
		}
	}
	if comm != 2 {
		t.Fatalf("%d clause blocks start with their comm statement, want 2 (default has none)", comm)
	}
	if !forwardReaches(dispatch, g.Exit) {
		t.Error("select with default must reach Exit")
	}
}

func TestBuildCFGEmptySelectTerminates(t *testing.T) {
	g := BuildCFG(parseBody(t, `func f() {
	select {}
}`))
	assertForwardAcyclic(t, g)
	// `select {}` blocks forever: no successors, Exit unreachable.
	if len(g.Entry.Succs) != 0 {
		t.Fatalf("select{} dispatch has %d succs, want 0", len(g.Entry.Succs))
	}
	if len(g.Exit.Preds) != 0 {
		t.Errorf("select{}: Exit has %d preds, want 0", len(g.Exit.Preds))
	}
}

func TestBuildCFGLabeledBreakContinue(t *testing.T) {
	g := BuildCFG(parseBody(t, `func f(rows [][]int) int {
	s := 0
Outer:
	for _, row := range rows {
		for _, v := range row {
			if v < 0 {
				continue Outer
			}
			if v == 99 {
				break Outer
			}
			s += v
		}
	}
	return s
}`))
	assertForwardAcyclic(t, g)
	var outer, inner *Block
	for _, blk := range g.Blocks {
		if blk.IsLoopHead {
			if outer == nil {
				outer = blk
			} else {
				inner = blk
			}
		}
	}
	if outer == nil || inner == nil {
		t.Fatal("expected two loop heads")
	}
	// `continue Outer` must target the outer head as a back edge: some
	// block inside the inner loop carries a Back edge to the outer head.
	foundCont := false
	for _, blk := range g.Blocks {
		for _, bk := range blk.Back {
			if bk == outer && blk != inner && !forwardReaches(blk, inner) {
				foundCont = true
			}
		}
	}
	if !foundCont {
		t.Error("continue Outer not wired as a back edge to the outer loop head")
	}
	// `break Outer` must skip the inner loop's exit and still reach Exit.
	if !forwardReaches(g.Entry, g.Exit) {
		t.Error("break Outer: Exit unreachable")
	}
}

func TestBuildCFGGoto(t *testing.T) {
	// Backward goto: must be recorded as a back edge so forward walks
	// terminate; the jump target becomes a loop head.
	g := BuildCFG(parseBody(t, `func f(n int) int {
	i := 0
loop:
	i++
	if i < n {
		goto loop
	}
	return i
}`))
	assertForwardAcyclic(t, g)
	heads := 0
	for _, blk := range g.Blocks {
		if blk.IsLoopHead {
			heads++
		}
	}
	if heads != 1 {
		t.Fatalf("backward goto: %d loop heads, want 1", heads)
	}
	if !forwardReaches(g.Entry, g.Exit) {
		t.Error("backward goto: Exit unreachable forward")
	}

	// Forward goto: a plain forward edge to the label, so code between
	// the goto and the label is skipped on that path but Exit stays
	// reachable, and the graph stays acyclic.
	g = BuildCFG(parseBody(t, `func f(fail bool) int {
	x := 1
	if fail {
		goto done
	}
	x = 2
done:
	return x
}`))
	assertForwardAcyclic(t, g)
	for _, blk := range g.Blocks {
		if blk.IsLoopHead {
			t.Fatal("forward goto must not create a loop head")
		}
	}
	if !forwardReaches(g.Entry, g.Exit) {
		t.Error("forward goto: Exit unreachable")
	}
}

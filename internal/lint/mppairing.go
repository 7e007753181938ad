package lint

import (
	"go/ast"
	"go/types"

	"parroute/internal/mpproto"
)

// analyzerSendRecvPairing enforces the third mpproto rule: point-to-point
// peers must be well-formed with respect to the caller's own rank.
//
//   - A Send whose destination may equal the sender's own rank (the rank
//     itself, tracked through local variables by the rank-taint dataflow
//     — rank±1 never trips this) is flagged unless the same function also
//     performs a matching self-Recv on the same tag: an unconsumed
//     self-send is a message that sits in the mailbox forever, and an
//     accidental self-destination usually means a peer arithmetic bug.
//   - Symmetrically, a Recv from the caller's own rank with no matching
//     self-Send in the function blocks forever.
//   - A Send/Recv loop over `c.Size()` whose peer is the loop variable
//     must skip the caller's own rank (the `if r == me { continue }`
//     idiom of the mp collectives); a loop body that never compares the
//     loop variable deadlocks the rank against itself.
var analyzerSendRecvPairing = &Analyzer{
	Name: "send-recv-pairing",
	Doc:  "Send/Recv peers must not silently target the caller's own rank; Size() loops must skip self",
	Run:  runSendRecvPairing,
}

func runSendRecvPairing(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSelfPeers(p, fd)
			checkSizeLoops(p, fd)
		}
	}
}

// peerUse is one Send/Recv call with the taint of its peer argument at
// that program point.
type peerUse struct {
	call  *ast.CallExpr
	op    *mpproto.Op
	taint uint8
	tag   string // canonical tag expression text, "" when absent
}

// checkSelfPeers flags Sends/Recvs whose peer may be the caller's own
// rank without the matching opposite self-operation on the same tag.
func checkSelfPeers(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	g, flow, rf := solveRankTaint(info, fd)

	var uses []peerUse
	for _, b := range g.Blocks {
		facts := cloneFacts(flow.In[b])
		set := func(obj types.Object, mask uint8) {
			if mask == 0 {
				delete(facts, obj)
			} else {
				facts[obj] = mask
			}
		}
		for _, s := range b.Stmts {
			// Record uses with the facts in force *before* this
			// statement's own assignments land, then step.
			inspectSkippingFuncLits(s, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				op := mpproto.Classify(info, call)
				if op == nil || op.Peer(call) == nil {
					return
				}
				u := peerUse{call: call, op: op, taint: rf.valueTaint(op.Peer(call), facts)}
				if tag := op.Tag(call); tag != nil {
					u.tag = types.ExprString(tag)
				}
				uses = append(uses, u)
			})
			rf.stepStmt(s, facts, set)
		}
	}

	selfOn := func(s mpproto.Side, tag string) bool {
		for _, u := range uses {
			if u.op.Sides&s != 0 && u.taint&taintExact != 0 && u.tag == tag {
				return true
			}
		}
		return false
	}
	for _, u := range uses {
		if u.taint&taintExact == 0 {
			continue
		}
		switch {
		case u.op.Sides&mpproto.SideSend != 0 && !selfOn(mpproto.SideRecv, u.tag):
			p.Reportf(u.call.Pos(),
				"Send destination may equal the sender's own rank with no matching self-Recv on tag %s: the message is never drained", u.tag)
		case u.op.Sides&mpproto.SideRecv != 0 && !selfOn(mpproto.SideSend, u.tag):
			p.Reportf(u.call.Pos(),
				"Recv from the caller's own rank with no matching self-Send on tag %s: blocks forever", u.tag)
		}
	}
}

func cloneFacts(in taintFacts) taintFacts {
	out := make(taintFacts, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// checkSizeLoops flags Send/Recv loops over c.Size() that never compare
// the loop variable (and so cannot be skipping the caller's own rank).
func checkSizeLoops(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		var loopVar types.Object
		switch s := n.(type) {
		case *ast.ForStmt:
			loopVar = sizeLoopVar(info, s)
			body = s.Body
		case *ast.RangeStmt:
			// go1.22 range-over-int form: for r := range c.Size().
			if isSizeCall(info, s.X) && s.Key != nil {
				if id, ok := s.Key.(*ast.Ident); ok {
					loopVar = objOf(info, id)
				}
			}
			body = s.Body
		default:
			return true
		}
		if loopVar == nil {
			return true
		}
		guarded := loopVarCompared(info, body, loopVar)
		ast.Inspect(body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			op := mpproto.Classify(info, call)
			if op == nil {
				return true
			}
			if id, ok := ast.Unparen(op.Peer(call)).(*ast.Ident); ok &&
				objOf(info, id) == loopVar && !guarded {
				p.Reportf(call.Pos(),
					"%s loop over c.Size() does not skip the caller's own rank: add the `if r == c.Rank() { continue }` guard", op.Name)
			}
			return true
		})
		return true
	})
}

// sizeLoopVar recognizes `for r := 0; r < c.Size(); r++` (and <=) and
// returns r's object, or nil.
func sizeLoopVar(info *types.Info, s *ast.ForStmt) types.Object {
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op.String() != "<" && cond.Op.String() != "<=") {
		return nil
	}
	if !isSizeCall(info, cond.Y) {
		return nil
	}
	id, ok := ast.Unparen(cond.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return objOf(info, id)
}

// isSizeCall reports whether e is a Comm.Size() call (possibly with
// trailing arithmetic like Size()-1 stripped off the caller's side).
func isSizeCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && mpproto.IsMethodCall(info, call, "Size")
}

// loopVarCompared reports whether body contains any ==/!= comparison
// involving the loop variable — the self-skip guard idiom.
func loopVarCompared(info *types.Info, body *ast.BlockStmt, loopVar types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op.String() != "==" && be.Op.String() != "!=") {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			if id, ok := ast.Unparen(side).(*ast.Ident); ok && objOf(info, id) == loopVar {
				found = true
			}
		}
		return true
	})
	return found
}

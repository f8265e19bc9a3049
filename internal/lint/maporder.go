package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder flags range-over-map loops in the deterministic packages when
// the iteration's order is observable: the body sends on a channel,
// schedules events (sim.Env.Schedule/After and friends), or appends to
// state that outlives the loop. Go randomizes map iteration order per
// run, so any of those turns a replay-stable code path into a coin flip —
// the exact class of bug that breaks byte-identical clustersim output.
//
// The sanctioned fix is the sorted-keys idiom, which the analyzer
// recognizes: a collect loop whose appended slice is passed to a
// sort/slices call later in the same block is not flagged.
//
//	keys := make([]int, 0, len(m))
//	for k := range m { keys = append(keys, k) } // ok: sorted below
//	sort.Ints(keys)
//
// A genuinely order-independent site documents itself with
// //caflint:allow maporder.
var Maporder = &Analyzer{
	Name:       "maporder",
	Doc:        "flag order-observable map iteration in deterministic packages",
	Categories: []string{"maporder"},
	Run:        runMaporder,
}

// scheduleishMethods are method names whose call inside a map-range body
// makes the iteration order observable as event order.
var scheduleishMethods = map[string]bool{
	"Schedule": true, "After": true, "At": true, "Post": true,
	"Push": true, "Enqueue": true, "Wake": true, "Signal": true,
	"Broadcast": true, "Send": true,
}

func runMaporder(pass *Pass) error {
	if !deterministicPkg(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, rs, stack[:len(stack)-1])
			return true
		})
	}
	return nil
}

// checkMapRange reports rs if its body has an order-observable effect.
// ancestors is the node stack above rs, used to find the enclosing block
// for the sorted-after exemption.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, ancestors []ast.Node) {
	report := func(why string) {
		pass.Reportf(rs.Pos(), "maporder",
			"map iteration order is observable here (%s): iterate sorted keys, or justify with //caflint:allow maporder",
			why)
	}
	var appendTargets []ast.Expr
	why := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			why = "the body sends on a channel"
		case *ast.AssignStmt:
			if target := appendTarget(x); target != nil && !declaredWithin(pass, target, rs) {
				appendTargets = append(appendTargets, target)
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
						scheduleishMethods[fn.Name()] {
						why = "the body calls " + fn.Name() + ", ordering events"
					}
				}
			}
		}
		return true
	})
	if why != "" {
		report(why)
		return
	}
	for _, target := range appendTargets {
		if !sortedAfter(pass, target, rs, ancestors) {
			report("the body appends to state that outlives the loop")
			return
		}
	}
}

// appendTarget returns the assignment target expression when st contains
// `dst = append(..., ...)` (possibly among parallel assignments), else
// nil.
func appendTarget(st *ast.AssignStmt) ast.Expr {
	for i, rhs := range st.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if i < len(st.Lhs) {
			return st.Lhs[i]
		}
	}
	return nil
}

// declaredWithin reports whether the variable written by target is
// declared inside the range statement (in which case its order of growth
// is reset every iteration and cannot leak out).
func declaredWithin(pass *Pass, target ast.Expr, rs *ast.RangeStmt) bool {
	obj := targetObj(pass, target)
	if obj == nil {
		return false // field/index/deref target: escapes by construction
	}
	return obj.Pos() != token.NoPos && rs.Pos() <= obj.Pos() && obj.Pos() < rs.End()
}

func targetObj(pass *Pass, target ast.Expr) types.Object {
	id, ok := target.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return pass.Info.Defs[id]
}

// sortedAfter recognizes the collect-then-sort idiom: after rs in its
// enclosing block, the appended variable is passed to a function of the
// sort or slices packages (sort.Ints, sort.Slice, slices.Sort, ...),
// which launders the map's iteration order away.
func sortedAfter(pass *Pass, target ast.Expr, rs *ast.RangeStmt, ancestors []ast.Node) bool {
	obj := targetObj(pass, target)
	if obj == nil {
		return false
	}
	var block *ast.BlockStmt
	for i := len(ancestors) - 1; i >= 0; i-- {
		if b, ok := ancestors[i].(*ast.BlockStmt); ok {
			block = b
			break
		}
	}
	if block == nil {
		return false
	}
	past := false
	for _, st := range block.List {
		if st == ast.Stmt(rs) {
			past = true
			continue
		}
		if !past {
			continue
		}
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := arg.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

package lint

import (
	"go/ast"
	"go/types"
)

// Condloop requires every sync.Cond.Wait call to sit inside a for loop in
// the same function, so the predicate is re-checked after every wakeup.
// This is the lost-/spurious-wakeup bug class the native backend's
// comments warn about: Broadcast can fire between the predicate check and
// the Wait, or wake a waiter whose predicate is still false, and only
//
//	for !pred() { c.Wait() }
//
// is immune. A Wait guarded by a plain if (or not guarded at all) is a
// liveness bug waiting for a scheduler interleaving to expose it.
//
// The simulator's own sim.Cond takes the predicate as an argument and
// re-checks it internally, so it is safe by construction and not flagged.
var Condloop = &Analyzer{
	Name:       "condloop",
	Doc:        "require sync.Cond.Wait to be wrapped in a predicate re-check loop",
	Categories: []string{"condloop"},
	Run:        runCondloop,
}

func runCondloop(pass *Pass) error {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok || !isCondWait(pass.Info, call) {
				return true
			}
			if !insideForBody(stack[:len(stack)-1]) {
				pass.Reportf(call.Pos(), "condloop",
					"sync.Cond.Wait outside a for loop: wakeups may be spurious or raced, wrap it as `for !pred() { c.Wait() }`")
			}
			return true
		})
	}
	return nil
}

// isCondWait reports whether call is (*sync.Cond).Wait().
func isCondWait(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.FullName() == "(*sync.Cond).Wait"
}

// insideForBody reports whether the innermost enclosing function scope
// contains a ForStmt whose body (transitively, through blocks and ifs)
// holds the node at the top of the ancestor stack. Crossing a function
// literal resets the search: a Wait inside a closure is only as looped as
// the closure itself.
func insideForBody(ancestors []ast.Node) bool {
	for i := len(ancestors) - 1; i > 0; i-- {
		switch a := ancestors[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		case *ast.ForStmt:
			// Only the loop body re-runs; Init/Cond/Post do not count.
			if i+1 <= len(ancestors)-1 && ancestors[i+1] == a.Body {
				return true
			}
		}
	}
	return false
}

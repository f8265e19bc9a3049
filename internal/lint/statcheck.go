package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Statcheck is an errcheck-style used-result check for the failed-image
// API: any call returning the runtime's Stat type (caf.Stat — WithStat, the
// stat= form of every call) must consume the result.
// A dropped Stat is a fault-recovery path that silently ignores a failure
// code; a deliberate drop must say so with //caflint:allow stat.
//
// Flagged forms: a bare call statement, go/defer of such a call, and
// assignments that discard every Stat result into blank identifiers.
var Statcheck = &Analyzer{
	Name:       "statcheck",
	Doc:        "require the Stat result of failed-image-aware calls to be used",
	Categories: []string{"stat"},
	Run:        runStatcheck,
}

// isStatType reports whether t is (or aliases) a named type Stat declared
// somewhere in this module.
func isStatType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Stat" && obj.Pkg() != nil &&
		strings.HasPrefix(obj.Pkg().Path(), modulePath)
}

// statResults returns the indices of call's results that have the Stat
// type (nil if none).
func statResults(info *types.Info, call *ast.CallExpr) []int {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		var idx []int
		for i := 0; i < t.Len(); i++ {
			if isStatType(t.At(i).Type()) {
				idx = append(idx, i)
			}
		}
		return idx
	default:
		if isStatType(tv.Type) {
			return []int{0}
		}
	}
	return nil
}

func runStatcheck(pass *Pass) error {
	report := func(call *ast.CallExpr, how string) {
		pass.Reportf(call.Pos(), "stat",
			"result of %s is a Stat failure code and is %s: handle it (or annotate a deliberate drop with //caflint:allow stat)",
			callName(call), how)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok && statResults(pass.Info, call) != nil {
					report(call, "dropped")
				}
			case *ast.GoStmt:
				if statResults(pass.Info, st.Call) != nil {
					report(st.Call, "dropped (go statement)")
				}
			case *ast.DeferStmt:
				if statResults(pass.Info, st.Call) != nil {
					report(st.Call, "dropped (deferred call)")
				}
			case *ast.AssignStmt:
				// Single-call assignment: x, y := f(). Flag when every
				// Stat-typed result lands in a blank identifier.
				if len(st.Rhs) != 1 {
					return true
				}
				call, ok := st.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				idx := statResults(pass.Info, call)
				if idx == nil {
					return true
				}
				allBlank := true
				for _, i := range idx {
					if i >= len(st.Lhs) || !isBlank(st.Lhs[i]) {
						allBlank = false
						break
					}
				}
				if allBlank {
					report(call, "discarded into _")
				}
			}
			return true
		})
	}
	return nil
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// callName renders a readable name for a call's callee.
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	default:
		return "call"
	}
}

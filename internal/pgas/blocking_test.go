package pgas

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestSimHelpersDoNotBlock pins the sim transport's rule — helpers compute,
// transport methods block: in simbackend.go a call of Proc.Sleep, Cond.Wait or
// simWait* appears only in a method of *simTransport or in simWait* itself.
// route and the deliver* helpers, which every put passes through, stay frames
// that return; a block hidden in one of them is a frame under every parked
// image (see bench.TestStackBudget). The body of a spawned process (the
// heartbeat stampers) is not a helper: it blocks on its own stack.
//
// And the seam under it — a modeled message is charged in one place: in
// simbackend.go a resource is occupied only by route and by the same-node arm
// of atomicRoundTrip (AtomicShm is the memory system executing a
// read-modify-write, not a message), and the link-drop stream is consulted by
// one function, so no leg of any operation can miss a NIC or link fault.
func TestSimHelpersDoNotBlock(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "simbackend.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Paths arrive resolved (transport.go): nothing here resolves one again.
	ast.Inspect(file, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "resolveVia" {
			t.Errorf("%s: the sim transport resolves a path", fset.Position(sel.Pos()))
		}
		return true
	})
	checked := map[string]bool{}
	occupies, draws := map[string]int{}, map[string]int{}
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Occupy":
					occupies[fn.Name.Name]++
				case "drops":
					draws[fn.Name.Name]++
				}
			}
			return true
		})
		if strings.HasPrefix(fn.Name.Name, "simWait") {
			continue
		}
		if fn.Recv != nil {
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name == "simTransport" {
					continue
				}
			}
		}
		checked[fn.Name.Name] = true
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch f := call.Fun.(type) {
			case *ast.Ident:
				if strings.HasPrefix(f.Name, "simWait") {
					t.Errorf("%s: helper %s calls %s", fset.Position(call.Pos()), fn.Name.Name, f.Name)
				}
			case *ast.SelectorExpr:
				switch f.Sel.Name {
				case "Sleep", "Wait":
					t.Errorf("%s: helper %s blocks in .%s", fset.Position(call.Pos()), fn.Name.Name, f.Sel.Name)
				case "Spawn":
					return false // a process body, not a helper's frame
				}
			}
			return true
		})
	}
	for _, name := range []string{"route", "sendOverhead", "dispatch", "deliverAt", "deliverFlagOp", "dropped"} {
		if !checked[name] {
			t.Errorf("simbackend.go has no helper %s: the pin checks nothing on the put path", name)
		}
	}
	if occupies["route"] != 4 || occupies["atomicRoundTrip"] != 1 || len(occupies) != 2 {
		t.Errorf("resources are occupied in %v: want route's four sites and atomicRoundTrip's same-node arm only", occupies)
	}
	delete(draws, "Launch") // creates the stream, seeded by the plan
	if draws["dropped"] != 1 || len(draws) != 1 {
		t.Errorf("the link-drop stream is consulted in %v: want the one gate, dropped", draws)
	}
}

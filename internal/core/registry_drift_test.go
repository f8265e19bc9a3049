package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cafteams/internal/trace"
)

// TestKindTablesStayConsistent: kindTable is a keyed array literal, so a kind
// added to the const block without a row leaves a silent zero row. Every row
// must carry a unique display name that ParseKind resolves back.
func TestKindTablesStayConsistent(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kinds() {
		name := k.String()
		if name == "" || seen[name] {
			t.Errorf("kind %d has display name %q: empty or used twice", int(k), name)
		}
		seen[name] = true
		if got, err := ParseKind(name); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, k)
		}
	}
	if _, err := ParseKind("no-such-kind"); err == nil {
		t.Error("ParseKind accepted an unknown kind name")
	}
}

// runSwitchNames reads registry.go and returns, per Run* function, the string
// literals its `switch name` dispatches on.
func runSwitchNames(t *testing.T) map[string][]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "registry.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || !strings.HasPrefix(fn.Name.Name, "Run") {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range cc.List {
				if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, _ := strconv.Unquote(lit.Value)
					out[fn.Name.Name] = append(out[fn.Name.Name], s)
				}
			}
			return true
		})
	}
	return out
}

// TestBuiltinsTableStaysConsistent checks the two places an algorithm lives —
// its name in kindTable and its case in the kind's Run* switch — against each
// other, both ways, and the table's own invariants: every kind has an
// algorithm, names are well-formed and unique within their kind, and an "nb-"
// alias prefixes an algorithm of the same kind.
func TestBuiltinsTableStaysConsistent(t *testing.T) {
	runFn := [numKinds]string{
		KindBarrier: "RunBarrier", KindAllreduce: "RunAllreduce", KindReduceTo: "RunReduceTo",
		KindBroadcast: "RunBroadcast", KindAllgather: "RunAllgather", KindScatter: "RunScatter",
		KindGather: "RunGather", KindAlltoall: "RunAlltoall", KindScan: "RunScan",
	}
	cases := runSwitchNames(t)
	if len(cases) != int(numKinds) {
		t.Errorf("registry.go has %d Run* dispatchers, want one per kind (%d)", len(cases), int(numKinds))
	}
	for _, k := range Kinds() {
		names := Algorithms(k)
		if len(names) == 0 {
			t.Errorf("kind %v has no built-in algorithms", k)
			continue
		}
		if len(names) > trace.AutoAlgs {
			t.Errorf("kind %v lists %d algorithms, the decision counters of trace.Stats hold %d", k, len(names), trace.AutoAlgs)
		}
		dispatched := cases[runFn[k]]
		for i, name := range names {
			if name == "" || name == AlgAuto || strings.ContainsAny(name, "/\x00") {
				t.Errorf("%v built-in %q is not a valid algorithm name", k, name)
			}
			if slices.Contains(names[:i], name) {
				t.Errorf("%v lists built-in %q twice", k, name)
			}
			if !HasAlgorithm(k, name) {
				t.Errorf("HasAlgorithm(%v, %q) = false for a built-in", k, name)
			}
			if !slices.Contains(dispatched, name) {
				t.Errorf("%s/%s is in the table but %s has no case for it", k, name, runFn[k])
			}
			if twin, isAlias := strings.CutPrefix(name, "nb-"); isAlias && (strings.HasPrefix(twin, "nb-") || !slices.Contains(names, twin)) {
				t.Errorf("alias %s/%s has no algorithm %q to run on a coroutine", k, name, twin)
			}
		}
		for _, name := range dispatched {
			if !slices.Contains(names, name) {
				t.Errorf("%s dispatches %q, which the table does not list for %v", runFn[k], name, k)
			}
		}
	}
}

package pgas

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestBackendSeamIsClosed: a backend's state is its transport, and no backend
// branch lives outside the backend's file. In the non-test files of pgas,
// simTransport is named only in simbackend.go and nativeTransport only in
// nativebackend.go; only nativebackend.go imports time (the wall clock is the
// native backend's); World's one backend field is its Transport, and no
// Transport method takes a *World (the transport holds its own).
func TestBackendSeamIsClosed(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	owner := map[string]string{"simTransport": "simbackend.go", "nativeTransport": "nativebackend.go"}
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{}
	backendTypes := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed[f] = file
		for _, imp := range file.Imports {
			if imp.Path.Value == `"time"` && f != "nativebackend.go" {
				t.Errorf("%s imports time: the wall clock is the native backend's", f)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if want, ok := owner[n.Name]; ok && f != want {
					t.Errorf("%s: %s is named outside %s", fset.Position(n.Pos()), n.Name, want)
				}
			case *ast.TypeSpec:
				if f == "simbackend.go" || f == "nativebackend.go" {
					backendTypes[n.Name.Name] = true
				}
			}
			return true
		})
	}
	if len(parsed) < 10 || !backendTypes["simTransport"] || !backendTypes["nativeTransport"] {
		t.Fatalf("parsed %d files, backend types %v: the pin checks nothing", len(parsed), backendTypes)
	}
	var world *ast.StructType
	for _, file := range parsed {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			switch ts.Name.Name {
			case "World":
				world = ts.Type.(*ast.StructType)
			case "Transport":
				for _, m := range ts.Type.(*ast.InterfaceType).Methods.List {
					ast.Inspect(m.Type, func(n ast.Node) bool {
						if star, ok := n.(*ast.StarExpr); ok {
							if id, ok := star.X.(*ast.Ident); ok && id.Name == "World" {
								t.Errorf("%s: Transport.%s takes a *World", fset.Position(star.Pos()), m.Names[0].Name)
							}
						}
						return true
					})
				}
			}
			return false
		})
	}
	if world == nil {
		t.Fatal("no World struct found")
	}
	transports := 0
	for _, field := range world.Fields.List {
		if id, ok := field.Type.(*ast.Ident); ok && id.Name == "Transport" {
			transports += len(field.Names)
			continue
		}
		ast.Inspect(field.Type, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if backendTypes[n.Name] {
					t.Errorf("%s: World holds backend state %s beside its Transport", fset.Position(n.Pos()), n.Name)
				}
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && (pkg.Name == "sim" || pkg.Name == "cluster") {
					t.Errorf("%s: World holds backend state %s.%s beside its Transport", fset.Position(n.Pos()), pkg.Name, n.Sel.Name)
				}
				return false
			}
			return true
		})
	}
	if transports != 1 {
		t.Errorf("World has %d fields of type Transport, want 1", transports)
	}
}

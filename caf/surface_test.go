package caf

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestPublicSurface holds the exported API of package caf — every constant,
// variable, function, type (with its exported fields) and method, with
// signatures — to the checked-in list testdata/public_surface.txt. A PR that
// slims the runtime underneath keeps the list as it is; a PR that means to
// change the public surface edits the list, where a reviewer sees it.
func TestPublicSurface(t *testing.T) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	pkg, err := doc.NewFromFiles(fset, files, "cafteams/caf")
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	render := func(node any) string { // on one line
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(buf.String()), " ")
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			for _, name := range v.Names {
				got = append(got, v.Decl.Tok.String()+" "+name)
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			got = append(got, render(f.Decl))
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, ty := range pkg.Types {
		for _, spec := range ty.Decl.Specs {
			got = append(got, "type "+render(spec))
		}
		values(ty.Consts)
		values(ty.Vars)
		funcs(ty.Funcs)
		funcs(ty.Methods)
	}
	slices.Sort(got)

	data, err := os.ReadFile("testdata/public_surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, line := range got {
		if !slices.Contains(want, line) {
			t.Errorf("exported but not in testdata/public_surface.txt: %s", line)
		}
	}
	for _, line := range want {
		if !slices.Contains(got, line) {
			t.Errorf("in testdata/public_surface.txt but no longer exported: %s", line)
		}
	}
}

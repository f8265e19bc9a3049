package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages rooted at a directory, mapping
// import paths to subdirectories (testdata/src for fixtures; for
// self-checks a module root, less the module path). Imports that do not
// resolve under the root fall back to the standard library's source
// importer, so fixtures can use real "time", "math/rand" and "sync" — the
// packages the analyzers resolve by path.
//
// The loader exists because this module deliberately has no
// golang.org/x/tools dependency: it is the small, single-module subset
// of go/packages the lint suite needs. Production runs do not use it —
// cmd/caflint type-checks from go vet's export-data config instead.
type Loader struct {
	Root   string // directory that import paths are relative to
	module string // the module path, when Root holds a go.mod

	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a Loader resolving import paths under root; a module
// root's packages load as a build sees them, without their _test.go files.
func NewLoader(root string) *Loader {
	fset := token.NewFileSet()
	l := &Loader{
		Root:    root,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	mod, _ := os.ReadFile(filepath.Join(root, "go.mod"))
	if _, rest, ok := strings.Cut("\n"+string(mod), "\nmodule "); ok {
		l.module, _, _ = strings.Cut(strings.TrimSpace(rest), "\n")
	}
	return l
}

// Load parses and type-checks the package at import path (a directory
// under Root). In-package _test.go files are included (not in a module);
// files belonging to an external _test package are skipped.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dir(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && (l.module == "" || !strings.HasSuffix(e.Name(), "_test.go")) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	src := map[string][]byte{}
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		full := filepath.Join(dir, name)
		data, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, full, data, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			continue // external test package: out of scope for the loader
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("load %s: mixed packages %s and %s", path, pkgName, f.Name.Name)
		}
		src[full] = data
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load %s: no Go files in %s", path, dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	p := &Package{Path: path, Fset: l.fset, Files: files, Src: src, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// loaderImporter resolves local paths through the Loader and everything
// else through the standard library source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if dirExists(l.dir(path)) {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// dir is the directory of import path.
func (l *Loader) dir(path string) string {
	rel, _ := strings.CutPrefix(path, l.module+"/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// Caflint runs the internal/lint analyzer suite — the mechanical
// enforcement of this runtime's determinism, layering, liveness and seam
// invariants (see internal/lint's package docs for the analyzers and the
// //caflint:allow directive grammar).
//
// It speaks cmd/go's vet tool protocol directly (the role
// golang.org/x/tools' unitchecker plays for other linters; this module
// is deliberately dependency-free), so the canonical invocation is:
//
//	go build -o caflint ./cmd/caflint
//	go vet -vettool=$PWD/caflint ./...
//
// Invoked with package patterns (or no arguments, meaning ./...), it
// re-executes itself under go vet the same way:
//
//	caflint ./...
//
// Exit status: 0 clean, 2 findings, 1 operational failure.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"cafteams/internal/lint"
)

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			// cmd/go hashes this line into its action cache key.
			fmt.Println("caflint version 1")
			return
		case "-flags", "--flags":
			// cmd/go asks for our analyzer flags as JSON; we define none.
			fmt.Println("[]")
			return
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetUnit(args[0]))
	}
	os.Exit(standalone(args))
}

// standalone re-executes the suite under go vet so package loading,
// build-tag handling and caching are cmd/go's problem, not ours.
func standalone(patterns []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "caflint:", err)
		return 1
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintln(os.Stderr, "caflint:", err)
		return 1
	}
	return 0
}

// vetConfig mirrors the JSON config cmd/go hands a vet tool for each
// package (cmd/go/internal/work.vetConfig).
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool
	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string
	GoVersion   string

	SucceedOnTypecheckFailure bool
}

// vetUnit analyzes the single package described by a go vet config file.
func vetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "caflint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "caflint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	if cfg.VetxOnly {
		// A dependency-only run exists to produce cross-package facts;
		// this suite keeps no facts, so there is nothing to do. (cmd/go
		// tolerates the absent vetx output file.)
		return 0
	}

	fset := token.NewFileSet()
	src := map[string][]byte{}
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		b, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "caflint:", err)
			return 1
		}
		f, err := parser.ParseFile(fset, name, b, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		src[name] = b
		files = append(files, f)
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
	conf := types.Config{
		Importer: &vetImporter{cfg: &cfg, under: exportDataImporter(fset, &cfg)},
		Sizes:    types.SizesFor("gc", goarch()),
	}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// Test variants arrive as "pkg [pkg.test]"; normalize so the
	// path-scoped analyzers (simdet, maporder, layers) still apply to
	// in-package _test.go files.
	path := cfg.ImportPath
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	pkg := &lint.Package{Path: path, Fset: fset, Files: files,
		Src: src, Types: tpkg, Info: info}
	findings, err := lint.Run(pkg, lint.Suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, "caflint:", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

func goarch() string {
	if a := os.Getenv("GOARCH"); a != "" {
		return a
	}
	return runtime.GOARCH
}

// exportDataImporter reads dependency type information from the compiled
// export data (.a files) listed in the vet config, via the standard
// library's gc importer.
func exportDataImporter(fset *token.FileSet, cfg *vetConfig) types.ImporterFrom {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, cfg.Compiler, lookup).(types.ImporterFrom)
}

// vetImporter canonicalizes source import paths through the config's
// ImportMap before delegating to the export-data importer.
type vetImporter struct {
	cfg   *vetConfig
	under types.ImporterFrom
}

func (v *vetImporter) Import(path string) (*types.Package, error) {
	return v.ImportFrom(path, "", 0)
}

func (v *vetImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if mapped, ok := v.cfg.ImportMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return v.under.ImportFrom(path, dir, mode)
}

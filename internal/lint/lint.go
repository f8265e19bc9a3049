// Package lint is a suite of static analyzers that mechanically enforce
// the invariants this runtime's claims rest on: determinism (bitwise
// conformance across kinds × algorithms, byte-identical clustersim
// replays), layering (the backend-agnostic core/coll middle layer over the
// pgas Transport seam), liveness (predicate loops around condition waits
// in the native backend), and the architecture seams inside packages (the
// protocol vocabulary, the backend files, route as the one charge).
//
// The suite deliberately depends only on the standard library (go/ast,
// go/types): golang.org/x/tools is not vendored, so the framework here is
// a minimal reimplementation of the go/analysis shape — an Analyzer with a
// Run(*Pass), diagnostics with a category, and a testdata fixture runner
// (linttest) that understands `// want "re"` comments. cmd/caflint speaks
// cmd/go's vet tool protocol directly, so the whole suite runs as
// `go vet -vettool=caflint ./...`.
//
// # Suppression directives
//
// A finding is suppressed by a directive comment:
//
//	//caflint:allow <category> [<category>...] [-- justification]
//
// Placement decides scope: a trailing comment suppresses its own line, a
// comment alone on a line suppresses the next line, and a comment above
// the package clause suppresses the whole file (used by the native
// backend's wall-clock side). The categories are a closed set, each
// analyzer's Categories: wallclock and globalrand (simdet), layers, stat
// (statcheck), condloop, and maporder. A directive naming any other word
// suppresses nothing and is itself a finding, so a typo or a stale
// category cannot hide. seams has no category: an architecture seam moves
// only in its table (see Seams).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one named invariant check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer (which is intentionally not a
// dependency; see the package comment).
type Analyzer struct {
	Name string
	Doc  string
	// Categories are the words a //caflint:allow directive may name to
	// suppress this analyzer's findings, and the only ones it may report
	// under. No directive suppresses an analyzer without Categories.
	Categories []string
	Run        func(*Pass) error
}

// Diagnostic is one finding. Category is the token a //caflint:allow
// directive uses to suppress it.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Path     string // canonical import path ("cafteams/internal/core")
	Fset     *token.FileSet
	Files    []*ast.File
	Types    *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos under the given suppression category.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Category: category,
		Message: fmt.Sprintf(format, args...)})
}

// isTestFile reports whether pos sits in a _test.go file.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Suite returns the full analyzer suite in a fixed order.
func Suite() []*Analyzer {
	return []*Analyzer{Simdet, Layers, Statcheck, Condloop, Maporder, Seams}
}

// categories is the closed set of words a directive may name: the suite's
// analyzers' Categories.
func categories() []string {
	var cats []string
	for _, a := range Suite() {
		cats = append(cats, a.Categories...)
	}
	return cats
}

// Package is a loaded, type-checked package as the runner consumes it —
// built either by the in-process Loader (tests, fixtures) or by
// cmd/caflint from a go vet config.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Src   map[string][]byte // filename → source, for directive scoping
	Types *types.Package
	Info  *types.Info
}

// Finding is a surviving (unsuppressed) diagnostic with its resolved
// position and the analyzer that produced it.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Category string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Run applies the analyzers to pkg, filters the results through
// //caflint:allow directives, and returns the survivors sorted by
// position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	sup, out := scanDirectives(pkg)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Types:    pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range pass.diags {
			pos := pkg.Fset.Position(d.Pos)
			if cats := a.Categories; len(cats) > 0 && !slices.Contains(cats, d.Category) {
				return nil, fmt.Errorf("%s: category %q is not one of its Categories %v", a.Name, d.Category, cats)
			} else if len(cats) > 0 && sup.allows(pos, d.Category) {
				continue
			}
			out = append(out, Finding{Pos: pos, Analyzer: a.Name,
				Category: d.Category, Message: d.Message})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// suppressor indexes //caflint:allow directives by file and line.
type suppressor struct {
	file map[string]map[string]bool         // filename → categories (file-wide)
	line map[string]map[int]map[string]bool // filename → line → categories
}

func (s *suppressor) allows(pos token.Position, category string) bool {
	if s.file[pos.Filename][category] {
		return true
	}
	return s.line[pos.Filename][pos.Line][category]
}

const directivePrefix = "caflint:allow"

// scanDirectives collects every //caflint:allow comment in pkg, and a
// finding for each word one names outside the closed category set. A
// directive before the package clause is file-wide; a directive trailing
// code applies to its own line; a directive alone on a line applies to
// the following line.
func scanDirectives(pkg *Package) (*suppressor, []Finding) {
	var bad []Finding
	allowed := categories()
	s := &suppressor{
		file: map[string]map[string]bool{},
		line: map[string]map[int]map[string]bool{},
	}
	for _, f := range pkg.Files {
		tf := pkg.Fset.File(f.Pos())
		if tf == nil {
			continue
		}
		name := tf.Name()
		src := pkg.Src[name]
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				var cats []string
				for _, cat := range parseDirective(c.Text) {
					if slices.Contains(allowed, cat) {
						cats = append(cats, cat)
					} else {
						bad = append(bad, Finding{Pos: pkg.Fset.Position(c.Pos()), Analyzer: "directive", Category: "directive",
							Message: fmt.Sprintf("//caflint:allow names %q, which is not a category: a directive allows only %s",
								cat, strings.Join(allowed, ", "))})
					}
				}
				if len(cats) == 0 {
					continue
				}
				if c.End() < f.Package {
					m := s.file[name]
					if m == nil {
						m = map[string]bool{}
						s.file[name] = m
					}
					for _, cat := range cats {
						m[cat] = true
					}
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				target := pos.Line
				if standaloneComment(src, tf, c.Pos()) {
					target = pos.Line + 1
				}
				lm := s.line[name]
				if lm == nil {
					lm = map[int]map[string]bool{}
					s.line[name] = lm
				}
				m := lm[target]
				if m == nil {
					m = map[string]bool{}
					lm[target] = m
				}
				for _, cat := range cats {
					m[cat] = true
				}
			}
		}
	}
	return s, bad
}

// parseDirective extracts the category list from a //caflint:allow
// comment, or nil if the comment is not a directive. Everything after a
// "--" separator is a free-form justification.
func parseDirective(text string) []string {
	body := strings.TrimPrefix(text, "//")
	body = strings.TrimSpace(body)
	if !strings.HasPrefix(body, directivePrefix) {
		return nil
	}
	body = body[len(directivePrefix):]
	if body != "" && body[0] != ' ' && body[0] != '\t' {
		return nil // e.g. caflint:allowx
	}
	if i := strings.Index(body, "--"); i >= 0 {
		body = body[:i]
	}
	return strings.Fields(body)
}

// standaloneComment reports whether only whitespace precedes the comment
// on its line (so the directive targets the next line, not its own).
func standaloneComment(src []byte, tf *token.File, pos token.Pos) bool {
	if src == nil {
		// Without source text, treat indented comments as standalone;
		// column 1 comments certainly are.
		return true
	}
	off := tf.Offset(pos)
	lineStart := tf.Offset(tf.LineStart(tf.Line(pos)))
	if lineStart < 0 || off > len(src) {
		return true
	}
	return strings.TrimSpace(string(src[lineStart:off])) == ""
}

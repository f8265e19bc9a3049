// Package linttest runs a lint analyzer over testdata fixture packages
// and checks its findings against `// want "regexp"` comments, the same
// contract as golang.org/x/tools/go/analysis/analysistest (which this
// module deliberately does not depend on).
//
// A fixture line produces an expectation per quoted regexp of a // want or
// /* want */ comment (the block form shares a line with a directive):
//
//	time.Now() // want `wall-clock call`
//
// Lines carrying a //caflint:allow directive and no want comment verify
// suppression: if the directive failed, the finding would surface as an
// unexpected diagnostic and fail the test.
package linttest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"cafteams/internal/lint"
)

// Run loads each package (an import path under root: testdata/src for
// fixtures, or a module's root, whose code carries no want comments, so any
// finding fails), applies the analyzer, and reports mismatches against the
// want comments as test errors.
func Run(t *testing.T, root string, a *lint.Analyzer, paths ...string) {
	t.Helper()
	loader := lint.NewLoader(root)
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		findings, err := lint.Run(pkg, []*lint.Analyzer{a})
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		wants, err := collectWants(pkg)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		for _, f := range findings {
			key := lineKey{f.Pos.Filename, f.Pos.Line}
			if !wants.match(key, f.Message) {
				t.Errorf("%s: unexpected finding: %s", a.Name, f)
			}
		}
		for key, res := range wants {
			for _, w := range res {
				if !w.hit {
					t.Errorf("%s: %s:%d: expected finding matching %q, got none",
						a.Name, key.file, key.line, w.re)
				}
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re  *regexp.Regexp
	hit bool
}

type wantSet map[lineKey][]*want

func (ws wantSet) match(key lineKey, msg string) bool {
	for _, w := range ws[key] {
		if !w.hit && w.re.MatchString(msg) {
			w.hit = true
			return true
		}
	}
	return false
}

var wantRe = regexp.MustCompile("^want\\s")

// collectWants parses the `// want "re"...` comments of every file in pkg.
func collectWants(pkg *lint.Package) (wantSet, error) {
	ws := wantSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"), "*/"))
				if !wantRe.MatchString(body) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				res, err := parseWant(body[len("want"):])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %w", pos.Filename, pos.Line, err)
				}
				key := lineKey{pos.Filename, pos.Line}
				ws[key] = append(ws[key], res...)
			}
		}
	}
	return ws, nil
}

// parseWant extracts the quoted regexps ("..." or `...`) from the tail
// of a want comment.
func parseWant(s string) ([]*want, error) {
	var out []*want
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			break
		}
		quote := s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("want: expected quoted regexp, found %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("want: unterminated %q", s)
		}
		lit := s[1 : 1+end]
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, fmt.Errorf("want: bad regexp %q: %w", lit, err)
		}
		out = append(out, &want{re: re})
		s = s[2+end:]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want: no patterns")
	}
	return out, nil
}

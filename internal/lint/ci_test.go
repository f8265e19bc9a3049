package lint_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	runFlag  = regexp.MustCompile(`-(?:run|fuzz)[= ]('[^']*'|\S+)`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	plain    = regexp.MustCompile(`^\^?\w+\$?$`)
)

// TestCIRunPatternsMatch: every alternative of a ci.yml -run or -fuzz pattern
// that is a plain identifier (anchors aside) matches, as go test matches it, a
// Test or Fuzz function of the module. An alternative that matches nothing
// passes in silence, so a step naming a deleted or renamed test would run
// nothing and stay green.
func TestCIRunPatternsMatch(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && d.Name() != "..") {
			return fs.SkipDir // fixtures, and .git and build caches
		}
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(string(ci), "\n") {
		if !strings.Contains(line, "go test ") {
			continue
		}
		for _, m := range runFlag.FindAllStringSubmatch(line, -1) {
			for _, alt := range strings.Split(strings.Trim(m[1], "'"), "|") {
				if !plain.MatchString(alt) {
					continue
				}
				checked++
				if re := regexp.MustCompile(alt); !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("ci.yml: -run/-fuzz alternative %q matches no Test or Fuzz function of the module", alt)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml: no -run or -fuzz alternative found: the check checks nothing")
	}
	t.Logf("%d alternatives checked against %d functions", checked, len(names))
}

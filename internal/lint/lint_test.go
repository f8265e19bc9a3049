package lint

import (
	"reflect"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//caflint:allow wallclock", []string{"wallclock"}},
		{"// caflint:allow wallclock maporder", []string{"wallclock", "maporder"}},
		{"//caflint:allow stat -- deliberate drop: recovery is the caller's", []string{"stat"}},
		{"//caflint:allow condloop --", []string{"condloop"}},
		{"// plain comment", nil},
		{"//caflint:allowx wallclock", nil},
		{"//caflint:allow", nil},
		{"//caflint:allow -- justification only, no categories", nil},
	}
	for _, c := range cases {
		got := parseDirective(c.text)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseDirective(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestDeterministicPkg(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"cafteams/internal/sim", true},
		{"cafteams/internal/core", true},
		{"cafteams/internal/pgas", true},
		{"cafteams/cmd/clustersim", true},
		{"cafteams/cmd/teamsbench", true},
		{"cafteams/internal/lint", false},
		{"cafteams/caf", false},
		{"cafteams/examples/heat2d", false},
		{"cafteams/internal/simx", false},
	}
	for _, c := range cases {
		if got := deterministicPkg(c.path); got != c.want {
			t.Errorf("deterministicPkg(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestSuiteIsComplete(t *testing.T) {
	want := []string{"simdet", "layers", "statcheck", "condloop", "maporder", "seams"}
	var got []string
	for _, a := range Suite() {
		got = append(got, a.Name)
		if a.Run == nil || a.Doc == "" {
			t.Errorf("analyzer %s missing Run or Doc", a.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Suite() = %v, want %v", got, want)
	}
}

// TestCategoryIsDeclared: an analyzer with Categories reports only under
// them, so the directive grammar, which is built from them, cannot drift.
func TestCategoryIsDeclared(t *testing.T) {
	pkg, err := NewLoader("testdata/src").Load("plain")
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{Name: "stray", Categories: []string{"stray"}, Run: func(p *Pass) error {
		p.Reportf(p.Files[0].Package, "strayed", "a finding under an undeclared category")
		return nil
	}}
	if _, err := Run(pkg, []*Analyzer{a}); err == nil {
		t.Error("Run accepted a finding under a category its analyzer does not declare")
	}
}

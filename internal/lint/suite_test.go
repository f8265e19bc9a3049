package lint_test

import (
	"testing"

	"cafteams/internal/lint"
	"cafteams/internal/lint/linttest"
)

func TestSimdet(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Simdet,
		"cafteams/internal/sim",  // wall-clock + global-rand positives, both directive scopes
		"cafteams/internal/pgas", // file-wide directive above the package clause
		"cafteams/cmd/demo",      // cmd/* is in the deterministic set
		"plain",                  // outside the set: no findings
	)
}

func TestLayers(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Layers,
		"cafteams/internal/core", // sim + upward imports forbidden, pgas allowed
		"cafteams/caf",           // sim forbidden outside _test.go, exempt inside
	)
}

func TestSeams(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.SeamsFixture, "seamfix")
}

func TestStatcheck(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Statcheck, "cafteams/statfix")
}

func TestCondloop(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Condloop, "condfix")
}

func TestMaporder(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Maporder,
		"cafteams/internal/coll",
		"plain", // outside the deterministic set: no findings
	)
}

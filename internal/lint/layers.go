package lint

import (
	"slices"
	"strconv"
	"strings"
)

// Layers enforces the module's import DAG — the layering that PR 5's
// Transport seam established by hand and that, until this analyzer, was
// guarded only by a "verified no sim imports in core/coll" review note.
// The load-bearing rules:
//
//   - internal/coll, internal/core, internal/team are backend-agnostic:
//     they speak only to internal/pgas (the Transport seam) and must
//     never import internal/sim. A sim import there would couple the
//     collective runtime to one backend and break the sim/native
//     cross-backend conformance story.
//   - caf (the public API) must not import internal/sim outside _test.go
//     files: backend selection happens behind pgas constructors
//     (pgas.NewSimWorld / pgas.NewNativeWorld).
//   - internal/* never reaches up into caf, cmd, or examples.
//
// _test.go files are exempt: conformance tests deliberately drive the
// sim clock and cross layers.
var Layers = &Analyzer{
	Name:       "layers",
	Doc:        "enforce the backend-agnostic import DAG over the Transport seam",
	Categories: []string{"layers"},
	Run:        runLayers,
}

// layerAllow maps a guarded package to the complete set of intra-module
// imports it may use. Packages not listed (cmd/*, examples/*, the
// workload libraries internal/bench and internal/hpl) are unrestricted
// except for the upward-import rule.
var layerAllow = map[string][]string{
	// Leaves: no intra-module imports at all.
	"cafteams/internal/sim":      {},
	"cafteams/internal/topology": {},
	"cafteams/internal/trace":    {},
	"cafteams/internal/linalg":   {},

	"cafteams/internal/machine": {"cafteams/internal/sim"},
	"cafteams/internal/cluster": {
		"cafteams/internal/machine",
		"cafteams/internal/sim",
		"cafteams/internal/topology",
	},
	"cafteams/internal/pgas": {
		"cafteams/internal/cluster",
		"cafteams/internal/machine",
		"cafteams/internal/sim",
		"cafteams/internal/topology",
		"cafteams/internal/trace",
	},

	// The backend-agnostic middle layer: pgas only, never sim.
	"cafteams/internal/team": {
		"cafteams/internal/pgas",
		"cafteams/internal/trace",
	},
	"cafteams/internal/coll": {
		"cafteams/internal/pgas",
		"cafteams/internal/team",
		"cafteams/internal/trace",
	},
	"cafteams/internal/core": {
		"cafteams/internal/coll",
		"cafteams/internal/pgas",
		"cafteams/internal/team",
		"cafteams/internal/trace",
	},

	// Public API: everything below it except the simulator kernel.
	"cafteams/caf": {
		"cafteams/internal/cluster",
		"cafteams/internal/coll",
		"cafteams/internal/core",
		"cafteams/internal/machine",
		"cafteams/internal/pgas",
		"cafteams/internal/team",
		"cafteams/internal/topology",
		"cafteams/internal/trace",
	},
}

const modulePath = "cafteams"

func runLayers(pass *Pass) error {
	allowed, guarded := layerAllow[pass.Path]
	internalPkg := strings.HasPrefix(pass.Path, modulePath+"/internal/")
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !strings.HasPrefix(path, modulePath+"/") {
				continue
			}
			if internalPkg && upwardImport(path) {
				pass.Reportf(imp.Pos(), "layers",
					"layering violation: %s must not import %s (internal packages never reach up into the API/binaries layer)",
					pass.Path, path)
				continue
			}
			if !guarded {
				continue
			}
			if !slices.Contains(allowed, path) {
				pass.Reportf(imp.Pos(), "layers",
					"layering violation: %s must not import %s (allowed: %s; see internal/lint/layers.go for the enforced DAG)",
					pass.Path, path, strings.Join(allowed, ", "))
			}
		}
	}
	return nil
}

// upwardImport reports whether path points at the API/binaries layer.
func upwardImport(path string) bool {
	for _, up := range []string{"/caf", "/cmd/", "/examples/"} {
		full := modulePath + up
		if path == full || strings.HasPrefix(path, full) {
			return true
		}
	}
	return false
}

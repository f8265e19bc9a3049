package lint

import (
	"go/types"
	"strings"
)

// Simdet forbids wall-clock and global-randomness entry points in the
// deterministic packages. Every timing observable in those packages must
// come from the sim.Env virtual clock, and every random stream from an
// explicitly seeded *rand.Rand — otherwise bitwise conformance and
// byte-identical clustersim replays silently stop meaning anything.
//
// Legitimate wall-clock sites (the native backend, clustersim's
// wall-clock-vs-simulated reporting) opt out with
// //caflint:allow wallclock.
var Simdet = &Analyzer{
	Name: "simdet",
	Doc: "forbid wall-clock (time.Now/Since/Sleep/...) and global math/rand " +
		"use in deterministic packages",
	Categories: []string{"wallclock", "globalrand"},
	Run:        runSimdet,
}

// deterministicPkgs lists the packages whose behavior must be a pure
// function of (seed, config): the simulator kernel, the backend-agnostic
// collective runtime, the team/cluster layers, pgas (its native side
// opts out file-by-file), and the cmd/ reporting binaries whose output
// tables are asserted byte-identical across replays.
var deterministicPkgs = []string{
	"cafteams/internal/sim",
	"cafteams/internal/core",
	"cafteams/internal/coll",
	"cafteams/internal/team",
	"cafteams/internal/cluster",
	"cafteams/internal/pgas",
	"cafteams/cmd/",
}

func deterministicPkg(path string) bool {
	for _, p := range deterministicPkgs {
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(path, p) {
				return true
			}
		} else if path == p {
			return true
		}
	}
	return false
}

// wallclockFuncs are the package-level functions of "time" that read or
// depend on the machine clock. Pure conversions (time.Duration math,
// ParseDuration, Unix) are fine.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the top-level math/rand (and v2) functions that
// draw from the shared global source. Constructors (New, NewSource,
// NewPCG, NewChaCha8) are allowed — explicit seeded streams are exactly
// the sanctioned pattern.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint": true, "Uint32N": true,
	"Uint64N": true, "N": true,
}

func runSimdet(pass *Pass) error {
	if !deterministicPkg(pass.Path) {
		return nil
	}
	for id, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			continue // methods (e.g. (*rand.Rand).Intn, (time.Time).Sub) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			if wallclockFuncs[fn.Name()] {
				pass.Reportf(id.Pos(), "wallclock",
					"wall-clock call time.%s in deterministic package %s: use the sim.Env virtual clock, or annotate a legitimate native-backend/reporting site with //caflint:allow wallclock",
					fn.Name(), pass.Path)
			}
		case "math/rand", "math/rand/v2":
			if globalRandFuncs[fn.Name()] {
				pass.Reportf(id.Pos(), "globalrand",
					"global %s.%s in deterministic package %s: draw from an explicitly seeded *rand.Rand instead",
					fn.Pkg().Path(), fn.Name(), pass.Path)
			}
		}
	}
	return nil
}

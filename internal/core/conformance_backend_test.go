package core

// Cross-backend conformance (the -backend=sim|native cross-check): the
// default algorithm of every collective kind — what the auto policy
// dispatches to when a caf program just calls im.CoSum — runs on the same
// shape and seed on both the discrete-event sim backend and the native
// goroutine backend, and every image's result must match the serial
// reference bitwise on both. Inputs are small integers, so every float64
// combine is exact and sim/native agreement is equality with the reference
// on each side, not a tolerance. What this pins down: the algorithms'
// combine orders are structural (counted flag waits, then fixed rank/round
// order), so real-goroutine interleaving on the native backend cannot
// perturb results relative to the deterministic simulator.

import (
	"fmt"
	"testing"

	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
	"cafteams/internal/topology"
)

// confBackends are the substrates the cross-check sweeps.
var confBackends = []string{"sim", "native"}

// defaultAlgs resolves the auto policy's algorithm choice per kind on the
// scenario's shape. AlgFor only reads the team's hierarchy view, so it can
// be resolved once on a throwaway world; every image of a team resolves the
// same name.
func defaultAlgs(t *testing.T, sc confScenario) map[Kind]string {
	t.Helper()
	topo, err := topology.New(sc.nodes, 2, (sc.perNode+1)/2, sc.nodes*sc.perNode, sc.place)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := team.Initial(w, w.Image(0))
	pol := Policy{Level: LevelAuto}
	algs := make(map[Kind]string)
	for _, k := range Kinds() {
		elems := sc.elems
		if k == KindBarrier {
			elems = -1
		}
		algs[k] = pol.AlgFor(k, v, elems, 8)
	}
	return algs
}

// TestConformanceCrossBackend is the cross-backend sweep entry point.
func TestConformanceCrossBackend(t *testing.T) {
	seed := conformanceEnv(t, "CAF_CONFORMANCE_SEED", 20260807)
	shapes := []confScenario{
		{nodes: 3, perNode: 4, place: topology.PlaceBlock, elems: 33},
		{nodes: 1, perNode: 8, place: topology.PlaceBlock, elems: 16},
		{nodes: 4, perNode: 2, place: topology.PlaceCyclic, elems: 5},
	}
	if testing.Short() {
		shapes = shapes[:1]
	}
	for i := range shapes {
		shapes[i].seed = seed + int64(i)*101
	}
	for _, base := range shapes {
		base := base
		t.Run(base.String(), func(t *testing.T) {
			algs := defaultAlgs(t, base)
			for _, k := range Kinds() {
				k := k
				name := algs[k]
				for _, backend := range confBackends {
					for _, splitPhase := range []bool{false, true} {
						sc := base
						sc.backend, sc.splitPhase = backend, splitPhase
						label := fmt.Sprintf("%s/%s/%s", k, name, backend)
						if splitPhase {
							label += "/splitphase"
						}
						t.Run(label, func(t *testing.T) {
							runConfCell(t, sc, k, name)
						})
					}
				}
			}
		})
	}
}

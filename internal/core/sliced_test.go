package core

// The node stage of the leveled reductions (reduceUp's reduce-scatter) cuts
// the group's vectors into one slice per member only from sliceBytes per slice
// up, above every size the randomized conformance sweep draws: this table runs
// it on both backends, bitwise against the serial reference, on both sides of
// the crossover of each group size the shapes have.

import (
	"fmt"
	"testing"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/topology"
)

// slicedScenarios are the shapes of the sliced stage's table, each with the
// group sizes its sizes straddle the crossover of: 16(4) in blocks and
// cyclically (a node's ranks not contiguous), 2 nodes × 3 sockets × 3 cores
// (3level slices at both levels, 2level over nodes of 9), and a gappy
// placement with uneven node groups (5, 3 and 1 images; node 1 unused, ranks
// interleaved), where one size slices some groups and not others.
func slicedScenarios(t *testing.T) []struct {
	sc     confScenario
	groups []int
} {
	t.Helper()
	topo := func(nodes, sockets, cores, images int, place topology.Placement) *topology.Topology {
		tp, err := topology.New(nodes, sockets, cores, images, place)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	gappy, err := topology.NewCustom(4, 1, 6, []topology.Loc{
		{Node: 0, Core: 0}, {Node: 2, Core: 1}, {Node: 0, Core: 1}, {Node: 3, Core: 5},
		{Node: 0, Core: 3}, {Node: 2, Core: 2}, {Node: 0, Core: 4}, {Node: 2, Core: 4},
		{Node: 0, Core: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		sc     confScenario
		groups []int
	}{
		{confScenario{label: "16(4)-block", topo: topo(4, 2, 2, 16, topology.PlaceBlock)}, []int{4}},
		{confScenario{label: "16(4)-cyclic", topo: topo(4, 2, 2, 16, topology.PlaceCyclic)}, []int{4}},
		{confScenario{label: "2x3x3", topo: topo(2, 3, 3, 18, topology.PlaceBlock)}, []int{3, 9}},
		{confScenario{label: "gappy-5-3-1", topo: gappy}, []int{5, 3}},
	}
}

// TestSlicedNodeStage runs allreduce 2level, 3level and nb-2level and
// reduceto/2level on the shapes above at three sizes per group size g: one
// element below the crossover (one slice, which the leader combines alone),
// at it (g slices), and one above it (n not a multiple of g: a shorter last
// slice); eight episodes with rotating roots (members and leaders) under skew
// heavy enough for a fast image to run an episode ahead, on sim and native. A
// member that does not gate on the reduceto leader's credit, at either size,
// or a combiner that skips one sender's wait, reads or overwrites a slice
// region of the wrong episode here.
func TestSlicedNodeStage(t *testing.T) {
	const es = 8 // float64
	roots := []int{1, 0, 6, 5, 11, 2, 8, 3}
	cells := []struct {
		k    Kind
		name string
	}{{KindAllreduce, "2level"}, {KindAllreduce, "3level"}, {KindAllreduce, "nb-2level"}, {KindReduceTo, "2level"}}
	// Beside the shared shapes, 2 nodes × 3 sockets × 3 cores with each
	// node's lowest rank on its last socket: the node leader is the last of
	// its socket leaders, so 3level's second level runs with its leader off
	// position 0, where reduceUp counts offsets from it.
	var rot []topology.Loc
	for img := range 18 {
		k := img % 9
		rot = append(rot, topology.Loc{Node: img / 9, Socket: (k + 2) % 3, Core: (k+2)%3*3 + k/3})
	}
	last, err := topology.NewCustom(2, 3, 3, rot)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := append(slicedScenarios(t), struct {
		sc     confScenario
		groups []int
	}{confScenario{label: "2x3x3-leader-last", topo: last}, []int{3}})
	for _, s := range scenarios {
		var sizes []int
		for _, g := range s.groups {
			at := sliceBytes * g / es
			if !sliced(g, at, es) || sliced(g, at-1, es) {
				t.Fatalf("%s: %d elements are not the crossover of a group of %d", s.sc.label, at, g)
			}
			sizes = append(sizes, at-1, at, at+1)
		}
		for _, elems := range sizes {
			sc := s.sc
			sc.elems, sc.seed, sc.episodes = elems, 20261017+int64(elems), len(roots)
			sc.rootOf = func(ep, n int) int { return roots[ep] % n }
			sc.skew = heavySkew(200_000, 5_000)
			for _, c := range cells {
				runSkewCell(t, sc, confBackends, fmt.Sprintf("%s/%s", c.k, c.name), func(t *testing.T, sc confScenario) {
					runConfCell(t, sc, c.k, c.name)
				})
			}
		}
	}
}

// TestSlicedScan runs scan/2level, inclusive and exclusive, around its two
// size rules: the node stage's crossover (one element below, at it, and one
// above — not a multiple of the group) and the leaders' chain's segments (one
// segment, two, and a length that is not a multiple of the segment size), on
// the sliced stage's shapes, 64(8), 17 nodes of three images (17 leaders:
// the sliced stage under coll.SubgroupExscan, which has no segments, so only
// the crossover's sizes) and nodes of 5, 2, 1 and 4
// images in rank order (sliced nodes and whole-vector ones on one chain).
// Eight episodes under skew heavy
// enough for a fast image to run an episode ahead, on sim and native, bitwise
// against the serial reference; the exclusive form's rank 0 must keep its own
// vector. A member that skips one slice, node-total, prefix or result wait, or
// a leader that skips one chain segment's wait or its successor's credit,
// reads a region before it lands or overwrites one before it is read.
func TestSlicedScan(t *testing.T) {
	const es = 8 // float64
	var uneven []topology.Loc
	for node, images := range []int{5, 2, 1, 4} {
		for core := range images {
			uneven = append(uneven, topology.Loc{Node: node, Core: core})
		}
	}
	topo, err := topology.NewCustom(4, 1, 5, uneven)
	if err != nil {
		t.Fatal(err)
	}
	threes, err := topology.New(17, 1, 3, 51, topology.PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []confScenario{
		{label: "64(8)", nodes: 8, perNode: 8, place: topology.PlaceBlock},
		{label: "51(17)", topo: threes},
		{label: "uneven-5-2-1-4", topo: topo},
	}
	for _, s := range slicedScenarios(t) {
		scenarios = append(scenarios, s.sc)
	}
	chain := chainSegBytes / es // the most elements the chain sends whole
	for _, base := range scenarios {
		tm := initialTeam(t, base)
		if base.label == "51(17)" && tm.NumNodeGroups() != 17 {
			t.Fatalf("%s: %d leaders, want 17", base, tm.NumNodeGroups())
		}
		at := 1
		for tm.MaxNodeGroup() > 2 && !scanSliced(tm.MaxNodeGroup(), at, es) { // a pair never slices
			at++
		}
		sizes := []int{at - 1, at, at + 1}
		if tm.NumNodeGroups() < logDepthLeaders { // the exchange has no segments
			sizes = append(sizes, chain, chain+1, 3*chain-1)
		}
		for _, elems := range sizes {
			for _, exclusive := range []bool{false, true} {
				sc := base
				sc.elems, sc.seed, sc.episodes = elems, 20261017+int64(elems), 8
				sc.skew = heavySkew(200_000, 5_000)
				runSkewCell(t, sc, confBackends, fmt.Sprintf("excl=%v", exclusive), func(t *testing.T, sc confScenario) {
					runConformanceData(t, sc, KindScan, "2level", exclusive)
				})
			}
		}
	}
}

// initialTeam returns sc's initial team.
func initialTeam(t *testing.T, sc confScenario) *team.Team {
	var tm *team.Team
	w := sc.world(t)
	w.Run(func(im *pgas.Image) {
		if v := team.Initial(w, im); im.Rank() == 0 {
			tm = v.T
		}
	})
	return tm
}

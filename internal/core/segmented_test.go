package core

// The two-level fan-outs that land in pieces: bcast/2level's pipeline, which
// cuts its payload into segments only above one segment (4 KiB or more:
// above every size the randomized conformance sweep draws), and
// allgather/2level's members, which take their own node's block and then
// each leaders' round as it lands. This table runs both on the sliced
// stage's shapes and on one node of two images, on both backends, bitwise
// against the serial reference.

import (
	"fmt"
	"testing"

	"cafteams/internal/topology"
)

// TestSegmentedFanOut runs bcast 2level and nb-2level at one segment (the
// crossover's element below), two (at it), one above it, at a length that is
// not a multiple of the segment size, and 2level also empty (one segment)
// and past the segment-count cap, and
// allgather/2level at two sizes: ten episodes under skew heavy enough for a
// fast image to run two episodes ahead, on sim and native. The roots are
// non-leaders on every shape, and one of them roots three episodes in a row
// and then every other one: a root that does not wait for its leader's
// handoff credit overwrites a handoff segment its leader has not yet
// forwarded, a leader that does not gate its fan-out on its members' acks one
// a member has not yet copied, and any member, leader or root that skips one
// segment's or one round's wait reads a region before it lands.
func TestSegmentedFanOut(t *testing.T) {
	const es = 8 // float64
	roots := []int{5, 5, 5, 6, 5, 7, 5, 13, 0, 6}
	// Beside the sliced stage's shapes, one node of two images: a root's
	// leader with no tree to forward to and no member to fan out to takes
	// each handoff segment faster than the root's puts land the next, so it
	// is the shape where a skipped handoff wait reads a region too early.
	one, err := topology.New(1, 1, 2, 2, topology.PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []confScenario{{label: "1x2", topo: one}}
	for _, s := range slicedScenarios(t) {
		scenarios = append(scenarios, s.sc)
	}
	for _, base := range scenarios {
		seg := oneSegment(t, base) // the crossover is one element more
		cells := []struct {
			k     Kind
			name  string
			sizes []int
		}{
			{KindBroadcast, "2level", []int{0, seg, seg + 1, seg + 2, 5*seg - 3, (maxSegs + 1) * seg}},
			{KindBroadcast, "nb-2level", []int{seg, seg + 1, seg + 2, 5*seg - 3}},
			{KindAllgather, "2level", []int{3, 128}},
		}
		for _, c := range cells {
			for _, elems := range c.sizes {
				sc := base
				sc.elems, sc.seed, sc.episodes = elems, 20261017+int64(elems), len(roots)
				sc.rootOf = func(ep, n int) int { return roots[ep] % n }
				sc.skew = heavySkew(200_000, 5_000)
				runSkewCell(t, sc, confBackends, fmt.Sprintf("%s/%s", c.k, c.name), func(t *testing.T, sc confScenario) {
					runConfCell(t, sc, c.k, c.name)
				})
			}
		}
	}
}

// oneSegment returns the most float64 elements bcast/2level sends whole on
// sc's initial team: one more is cut into two segments.
func oneSegment(t *testing.T, sc confScenario) int {
	tm := initialTeam(t, sc)
	n := 1
	for segments(tm, n+1, 8) == 1 {
		n++
	}
	return n
}

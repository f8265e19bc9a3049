package core

// Tests of what collective state costs: scratch slabs and flag rows
// materialise on first touch (pgas.Coarray, pgas.Flags) and every algorithm
// asks for its scratch per role (coll.Scratch), so the bytes a run
// materialises — trace.Snapshot.MaterializedBytes — must track the payload
// its images actually land, and per-image state of the tree algorithms must
// grow with log N, not N (ROADMAP item 4a).

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// runScratchCell runs sc.episodes episodes of k/name on a fresh world of sc
// (verifying results like every conformance run) and returns the world's
// counters.
func runScratchCell(t *testing.T, sc confScenario, k Kind, name string) trace.Snapshot {
	t.Helper()
	w := sc.world(t)
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		if k == KindBarrier {
			for ep := 0; ep < sc.episodes; ep++ {
				RunBarrier(name, v)
			}
			return
		}
		runConfEpisodes(t, sc, k, name, false, v)
	})
	return w.Stats().Snapshot()
}

// TestScratchEfficiency sweeps every registered algorithm of every kind at
// 64(8) and holds the bytes a world materialises to a small multiple of what
// the protocol needs at minimum: both parities of the payload one episode
// lands. A scratch sized for the most demanding role on every member (the
// sender-keyed binomial reduce-to was at ~65x) fails it.
func TestScratchEfficiency(t *testing.T) {
	const episodes = 2 // both parities
	sizes := []int{128, 4096}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, elems := range sizes {
		for _, k := range Kinds() {
			sc := confScenario{nodes: 8, perNode: 8, place: topology.PlaceBlock, elems: elems,
				seed: 20260927, episodes: episodes,
				rootOf: func(ep, n int) int { return (5 + 9*ep) % n }}
			if elems > 128 && (k == KindAllgather || k == KindAlltoall) {
				// 64 blocks of 32 KiB per image and landing region: keep
				// the quadratic kinds to the 16(4) shape at this size.
				sc.nodes, sc.perNode = 4, 4
			}
			for _, name := range Algorithms(k) {
				t.Run(fmt.Sprintf("%s/%s/%s", sc, k, name), func(t *testing.T) {
					sn := runScratchCell(t, sc, k, name)
					landed := (sn.IntraBytes + sn.InterBytes) / episodes
					got := sn.MaterializedBytes()
					t.Logf("materialised %d B (coarrays %d, flags %d) = %.2f x 2 parities x %d B landed per episode",
						got, sn.CoarrayBytes, sn.FlagBytes, float64(got)/float64(2*landed), landed)
					if got > 8*2*landed {
						t.Errorf("materialised %d B > 8 x 2 parities x %d B landed per episode", got, landed)
					}
				})
			}
		}
	}
}

// TestTreeStateGrowsLogarithmically pins ROADMAP item 4a: per-image
// materialised state of the binomial reduce-to and gather may grow from 256
// to 1024 images (4096 when not -short) no faster than log N, with slack for
// rounding. Sender-keyed slots and regions grew linearly.
func TestTreeStateGrowsLogarithmically(t *testing.T) {
	small, large := 256, 1024
	if !testing.Short() {
		large = 4096
	}
	perImage := func(k Kind, name string, images int) float64 {
		topo, err := topology.New(images/8, 2, 4, images, topology.PlaceBlock)
		if err != nil {
			t.Fatal(err)
		}
		sc := confScenario{label: fmt.Sprintf("%d-images", images), topo: topo, elems: 8,
			seed: 20260927, episodes: 2,
			rootOf: func(ep, n int) int { return (3 + 7*ep) % n }}
		return float64(runScratchCell(t, sc, k, name).MaterializedBytes()) / float64(images)
	}
	for _, c := range []struct {
		k    Kind
		name string
	}{{KindReduceTo, "binomial"}, {KindGather, "binomial"}} {
		t.Run(fmt.Sprintf("%s/%s", c.k, c.name), func(t *testing.T) {
			a, b := perImage(c.k, c.name, small), perImage(c.k, c.name, large)
			limit := 1.25 * math.Log2(float64(large)) / math.Log2(float64(small))
			t.Logf("%d images: %.0f B/image, %d images: %.0f B/image, ratio %.2f (limit %.2f)",
				small, a, large, b, b/a, limit)
			if b/a > limit {
				t.Errorf("per-image state grew %.2fx from %d to %d images, limit %.2fx (log ratio + 25%%)",
					b/a, small, large, limit)
			}
		})
	}
}

// TestRotatingRoots drives every rooted algorithm — blocking and nb-* —
// through every root in turn, four back-to-back episodes each, on awkward
// group sizes, verifying every result bitwise. Consecutive roots reshape the
// tree under slots and regions that are keyed by tree edge, so this is the
// schedule that would expose a credit or parity region shared by two writers.
// Each size runs flat (one image per node: g tree members) and two-level
// (two per node: g leaders).
func TestRotatingRoots(t *testing.T) {
	sizes := []int{3, 5, 6, 7, 12, 44}
	if testing.Short() {
		sizes = []int{3, 6, 7, 12}
	}
	const perRoot = 4
	for _, g := range sizes {
		for _, perNode := range []int{1, 2} {
			n := g * perNode
			sc := confScenario{nodes: g, perNode: perNode, place: topology.PlaceBlock, elems: 5,
				seed: int64(1000*g + perNode), episodes: perRoot * n,
				rootOf: func(ep, n int) int { return ep / perRoot % n }}
			for _, k := range []Kind{KindReduceTo, KindBroadcast, KindScatter, KindGather} {
				for _, name := range Algorithms(k) {
					t.Run(fmt.Sprintf("%s/%s/%s", sc, k, name), func(t *testing.T) {
						sn := runScratchCell(t, sc, k, name)
						if name != "binomial" || (k != KindReduceTo && k != KindGather) {
							return
						}
						// Edge-keyed: 3 slots per tree level on every
						// member, whatever the root.
						if want := int64(n * 8 * 3 * bits.Len(uint(n-1))); sn.FlagBytes > want {
							t.Errorf("flags materialised %d B > %d B (3 slots per tree level on %d images)",
								sn.FlagBytes, want, n)
						}
					})
				}
			}
		}
	}
}

package core

import (
	"fmt"
	"testing"

	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// shapeScenarios are the placements the message shape is pinned on: two
// rank-contiguous shapes and a cyclic one, whose node groups are not.
var shapeScenarios = []confScenario{
	{nodes: 4, perNode: 4, place: topology.PlaceBlock, elems: 2, seed: 7},
	{nodes: 8, perNode: 8, place: topology.PlaceBlock, elems: 2, seed: 7},
	{nodes: 4, perNode: 4, place: topology.PlaceCyclic, elems: 2, seed: 7},
}

// TestTwoLevelScatterAlltoallMessageShape pins what crosses the network per
// episode. scatter/2level: per remote node, the pack's put and notify, the
// leader's ack and the root's done stamp — 4·(nodes−1), whoever the root is
// (the wave reaches the node leaders only). alltoall/2level: a put and its
// notify per ordered pair of nodes; over shared memory, per member, its send
// vector's put and notify and those of every fan-out put — one per node, one
// per rank on the cyclic placement — and no credit, so a member's flag row
// has three slots and a leader's the exchange's one per step besides.
func TestTwoLevelScatterAlltoallMessageShape(t *testing.T) {
	const episodes = 4 // roots: a leader, then non-leaders of three nodes
	for _, base := range shapeScenarios {
		sc := base
		sc.episodes = episodes
		sc.rootOf = func(ep, n int) int { return ep * (n/4 + 1) % n }
		n := sc.nodes * sc.perNode
		t.Run(sc.String(), func(t *testing.T) {
			w := sc.world(t)
			w.Run(func(im *pgas.Image) { runConfEpisodes(t, sc, KindScatter, "2level", false, team.Initial(w, im)) })
			if got, want := w.Stats().Snapshot().InterMsgs, int64(episodes*4*(sc.nodes-1)); got != want {
				t.Errorf("scatter/2level sent %d inter-node messages in %d episodes, want %d (4 per remote node)", got, episodes, want)
			}

			w = sc.world(t)
			w.Run(func(im *pgas.Image) { runConfEpisodes(t, sc, KindAlltoall, "2level", false, team.Initial(w, im)) })
			sn, ng := w.Stats().Snapshot(), sc.nodes
			if want := int64(episodes * 2 * ng * (ng - 1)); sn.InterMsgs != want {
				t.Errorf("alltoall/2level sent %d inter-node messages in %d episodes, want %d (a put and a notify per node pair)", sn.InterMsgs, episodes, want)
			}
			fan := ng // puts per member
			if sc.place == topology.PlaceCyclic {
				fan = n
			}
			if want := int64(episodes * 2 * (n - ng) * (1 + fan)); sn.IntraMsgs != want {
				t.Errorf("alltoall/2level sent %d intra-node messages in %d episodes, want %d (a put and a notify per member, and per fan-out put)", sn.IntraMsgs, episodes, want)
			}
			if want := int64(8 * (n*3 + ng*(ng-1))); sn.FlagBytes != want {
				t.Errorf("alltoall/2level materialised %d B of flags, want %d (3 slots on %d images, %d more on %d leaders)", sn.FlagBytes, want, n, ng-1, ng)
			}
		})
	}
}

// TestTwoLevelAllgatherFanOutShape pins what allgather/2level moves over shared
// memory per episode: each member's contribution to its leader, and the
// leader's fan-out of every node block to every member as the block lands —
// one put per node block when its team ranks are consecutive, one per rank on
// the cyclic placement — each a put and its notify. 16(4): 12 members ×
// (1 + 4) × 2 = 120; 64(8): 56 × (1 + 8) × 2 = 1,008; cyclic 4×4:
// 12 × (1 + 16) × 2 = 408.
func TestTwoLevelAllgatherFanOutShape(t *testing.T) {
	const episodes = 3
	for i, perEpisode := range []int64{120, 1008, 408} {
		sc := shapeScenarios[i]
		sc.episodes = episodes
		t.Run(sc.String(), func(t *testing.T) {
			w := sc.world(t)
			w.Run(func(im *pgas.Image) { runConfEpisodes(t, sc, KindAllgather, "2level", false, team.Initial(w, im)) })
			if got, want := w.Stats().Snapshot().IntraMsgs, episodes*perEpisode; got != want {
				t.Errorf("allgather/2level sent %d intra-node messages in %d episodes, want %d", got, episodes, want)
			}
		})
	}
}

// TestTwoLevelScatterPacksOnlyScatteredGroups pins the root's packing charge on
// a machine whose local copies are slow enough to dominate the episode: with
// rank-contiguous node groups the root ships from send and its time stays
// below what packing the remote groups would cost; on the cyclic placement
// it packs every remote group, pays at least that, and stays right.
func TestTwoLevelScatterPacksOnlyScatteredGroups(t *testing.T) {
	model := machine.PaperCluster()
	model.MemBytesPerNS = 0.001 // one float64 copied: 8 µs
	for _, sc := range []confScenario{shapeScenarios[0], shapeScenarios[2]} {
		t.Run(sc.String(), func(t *testing.T) {
			topo, err := topology.New(sc.nodes, 2, (sc.perNode+1)/2, sc.nodes*sc.perNode, sc.place)
			if err != nil {
				t.Fatal(err)
			}
			w, err := pgas.NewWorld(sim.NewEnv(), model, topo, trace.New())
			if err != nil {
				t.Fatal(err)
			}
			n := topo.NumImages()
			var packing, rootTime pgas.Time
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				var send []float64
				if v.Rank == 0 { // a node leader on both placements
					for r := range n {
						send = append(send, confInput(sc.seed, 0, r, 0, sc.elems)...)
					}
					for gi := 1; gi < v.T.NumNodeGroups(); gi++ {
						packing += model.MemTime(8 * sc.elems * len(v.T.NodeGroup(gi)))
					}
				}
				recv := make([]float64, sc.elems)
				start := im.Now()
				RunScatter("2level", v, 0, send, recv)
				if v.Rank == 0 {
					rootTime = im.Now() - start
				}
				confCheck(t, fmt.Sprintf("rank %d", v.Rank), recv, confInput(sc.seed, 0, v.Rank, 0, sc.elems))
			})
			if packed := rootTime >= packing; packed != (sc.place == topology.PlaceCyclic) {
				t.Errorf("root took %d ns with %d ns of packing for the remote groups: packed %v", rootTime, packing, packed)
			}
		})
	}
}

// TestRootedCollectivesUnderSkew runs back-to-back episodes with rotating
// roots while every image sleeps a seeded random delay, now and then long
// enough for the others to run two episodes ahead, before each one: every
// algorithm of the rooted kinds, the all-to-all, the allgather and both forms
// of the scan, blocking and split-phase, bitwise against the serial
// reference. The root schedule reuses a root two episodes later (what a
// gather's landing regions at the root are credited for) and moves to a
// non-leader of another node (what the scatter's relayed done stamp is for);
// the rootless kinds are there for the leaders that serve their node while
// their network stage runs (allgather's per-round fan-out, the scan's fold
// out of the inbox). The 24-leader shape runs the rooted kinds' binomial tree
// over node blocks: its acks, credits and done stamp with roots that are
// leaders (0, 6) and members standing in for their node (1, 7, 11, 14).
func TestRootedCollectivesUnderSkew(t *testing.T) {
	roots := []int{1, 6, 1, 11, 14, 11, 0, 7}
	for _, base := range []confScenario{shapeScenarios[0], shapeScenarios[2], manyLeaderScenarios(t)[1]} {
		for _, split := range []bool{false, true} {
			sc := base
			sc.seed, sc.splitPhase, sc.episodes = 20261015, split, len(roots)
			sc.rootOf = func(ep, n int) int { return roots[ep] % n }
			sc.skew = heavySkew(400_000, 20_000)
			for _, k := range []Kind{KindScatter, KindGather, KindAlltoall, KindBroadcast, KindReduceTo, KindAllgather, KindScan} {
				for _, name := range Algorithms(k) {
					runSkewCell(t, sc, []string{""}, fmt.Sprintf("%s/%s", k, name), func(t *testing.T, sc confScenario) {
						runConfCell(t, sc, k, name) // both forms of the scan
					})
				}
			}
		}
	}
}

package team

import (
	"slices"
	"testing"

	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// placement encodes one image per byte, in rank order: node b>>1, socket b&1.
func placement(locs ...[2]int) []byte {
	b := make([]byte, len(locs))
	for i, l := range locs {
		b[i] = byte(l[0]<<1 | l[1])
	}
	return b
}

// FuzzTeamView: on any placement — node ids with gaps, either socket, ranks in
// any order — the hierarchy view has one order. The node groups partition the
// ranks, each on one node, in order of their lowest rank, which leads them;
// GroupOf, LeaderOf and Leaders agree; Contiguous holds exactly when every
// group's ranks are consecutive; the socket groups partition their node group
// the same way; and the Max* sizes are the maxima.
func FuzzTeamView(f *testing.F) {
	for _, seed := range [][]byte{
		placement([2]int{0, 0}, [2]int{0, 0}, [2]int{0, 1}, [2]int{0, 1}, [2]int{1, 0}, [2]int{1, 0}, [2]int{1, 1}, [2]int{1, 1}), // block
		placement([2]int{0, 0}, [2]int{1, 0}, [2]int{2, 0}, [2]int{0, 1}, [2]int{1, 1}, [2]int{2, 1}),                             // cyclic
		placement([2]int{2, 0}, [2]int{2, 1}, [2]int{1, 0}, [2]int{1, 1}, [2]int{0, 0}, [2]int{0, 1}),                             // descending
		// core's placementScenarios: spread and k-choices around a resident job.
		placement([2]int{2, 0}, [2]int{4, 0}, [2]int{1, 0}, [2]int{3, 0}, [2]int{0, 0}, [2]int{2, 0}),
		placement([2]int{2, 0}, [2]int{2, 0}, [2]int{2, 1}, [2]int{2, 1}, [2]int{4, 0}, [2]int{4, 0},
			[2]int{4, 1}, [2]int{4, 1}, [2]int{3, 0}, [2]int{1, 0}, [2]int{1, 1}, [2]int{3, 0}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		locs := make([]topology.Loc, len(data))
		perNode := map[int]int{}
		nodes, cores := 1, 1
		for i, b := range data {
			node := int(b >> 1)
			locs[i] = topology.Loc{Node: node, Socket: int(b & 1), Core: perNode[node]}
			perNode[node]++
			nodes, cores = max(nodes, node+1), max(cores, perNode[node])
		}
		topo, err := topology.NewCustom(nodes, 2, cores, locs)
		if err != nil {
			t.Fatal(err)
		}
		w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
		if err != nil {
			t.Fatal(err)
		}
		members := make([]int, len(locs))
		for r := range members {
			members[r] = r
		}
		tm := build(w, 1, 1, nil, members)

		g := tm.NumNodeGroups()
		if len(tm.Nodes()) != g || len(tm.Leaders()) != g {
			t.Fatalf("%d node groups, %d nodes, %d leaders", g, len(tm.Nodes()), len(tm.Leaders()))
		}
		seen := make([]bool, len(locs))
		contiguous := true
		maxGroup, maxSocketGroup, maxSockets := 0, 0, 0
		for gi := range g {
			grp := tm.NodeGroup(gi)
			if len(grp) == 0 || tm.Leaders()[gi] != grp[0] || (gi > 0 && grp[0] <= tm.NodeGroup(gi - 1)[0]) {
				t.Fatalf("group %d %v led by %d: groups must come by, and be led by, their lowest rank", gi, grp, tm.Leaders()[gi])
			}
			if slices.Contains(tm.Nodes()[:gi], tm.Nodes()[gi]) {
				t.Fatalf("node %d hosts two groups", tm.Nodes()[gi])
			}
			for i, r := range grp {
				if seen[r] || topo.NodeOf(r) != tm.Nodes()[gi] || (i > 0 && r <= grp[i-1]) {
					t.Fatalf("group %d %v on node %d: rank %d repeated, elsewhere or out of order", gi, grp, tm.Nodes()[gi], r)
				}
				seen[r] = true
				if tm.GroupOf(r) != gi || tm.LeaderOf(r) != tm.Leaders()[tm.GroupOf(r)] {
					t.Fatalf("rank %d in group %d: GroupOf %d, LeaderOf %d", r, gi, tm.GroupOf(r), tm.LeaderOf(r))
				}
			}
			contiguous = contiguous && grp[len(grp)-1]-grp[0] == len(grp)-1
			maxGroup = max(maxGroup, len(grp))

			sgs, sls := tm.SocketGroups(gi), tm.SocketLeaders(gi)
			if len(sls) != len(sgs) {
				t.Fatalf("group %d: %d socket groups, %d socket leaders", gi, len(sgs), len(sls))
			}
			var joined, sockets []int
			for si, sg := range sgs {
				_, socket := topo.SocketOf(sg[0])
				if sls[si] != sg[0] || slices.Contains(sockets, socket) || (si > 0 && sg[0] <= sgs[si-1][0]) {
					t.Fatalf("group %d: socket groups %v led by %v: each on a socket of its own, by and led by its lowest rank", gi, sgs, sls)
				}
				sockets = append(sockets, socket)
				for i, r := range sg {
					if _, s := topo.SocketOf(r); s != socket || (i > 0 && r <= sg[i-1]) {
						t.Fatalf("group %d: socket group %v mixes sockets or is out of order", gi, sg)
					}
				}
				joined = append(joined, sg...)
				maxSocketGroup = max(maxSocketGroup, len(sg))
			}
			slices.Sort(joined)
			if !slices.Equal(joined, grp) {
				t.Fatalf("group %d %v: socket groups %v do not partition it", gi, grp, sgs)
			}
			maxSockets = max(maxSockets, len(sgs))
		}
		if slices.Contains(seen, false) {
			t.Fatalf("groups %v miss a rank", seen)
		}
		if tm.Contiguous() != contiguous {
			t.Fatalf("Contiguous() = %v, every group consecutive %v", tm.Contiguous(), contiguous)
		}
		if tm.MaxNodeGroup() != maxGroup || tm.MaxSocketGroup() != maxSocketGroup || tm.MaxSockets() != maxSockets {
			t.Fatalf("Max* = %d, %d, %d, want %d, %d, %d", tm.MaxNodeGroup(), tm.MaxSocketGroup(), tm.MaxSockets(), maxGroup, maxSocketGroup, maxSockets)
		}
	})
}

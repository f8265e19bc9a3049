package team

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

func newWorld(t testing.TB, spec string) *pgas.World {
	t.Helper()
	topo, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestInitialTeamContainsAllImages(t *testing.T) {
	w := newWorld(t, "8(2)")
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		if v.NumImages() != 8 {
			t.Errorf("initial team size = %d, want 8", v.NumImages())
		}
		if v.ThisImage() != im.Rank() {
			t.Errorf("initial team rank %d != global rank %d", v.ThisImage(), im.Rank())
		}
		if v.T.Number() != 1 {
			t.Errorf("initial team number = %d, want 1", v.T.Number())
		}
		if v.T.Parent() != nil {
			t.Error("initial team has a parent")
		}
	})
}

func TestInitialTeamShared(t *testing.T) {
	w := newWorld(t, "4(2)")
	teams := make([]*Team, 4)
	w.Run(func(im *pgas.Image) {
		teams[im.Rank()] = Initial(w, im).T
	})
	for _, tm := range teams {
		if tm != teams[0] {
			t.Fatal("images hold different initial team objects")
		}
	}
}

func TestFormSplitsEvenOdd(t *testing.T) {
	w := newWorld(t, "8(2)")
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		sub := v.Form(int64(im.Rank()%2)+1, -1)
		if sub.NumImages() != 4 {
			t.Errorf("subteam size = %d, want 4", sub.NumImages())
		}
		if sub.T.Number() != int64(im.Rank()%2)+1 {
			t.Errorf("team number = %d", sub.T.Number())
		}
		if sub.T.Parent() != v.T {
			t.Error("parent link broken")
		}
		// Default order: parent-team order preserved.
		want := im.Rank() / 2
		if sub.ThisImage() != want {
			t.Errorf("image %d: subteam rank %d, want %d", im.Rank(), sub.ThisImage(), want)
		}
		// image_index maps back to the global rank.
		if sub.T.GlobalRank(sub.ThisImage()) != im.Rank() {
			t.Error("GlobalRank(ThisImage) != global rank")
		}
	})
}

func TestFormWithNewIndexReorders(t *testing.T) {
	w := newWorld(t, "4(2)")
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		// Reverse order within the single new team.
		sub := v.Form(1, v.NumImages()-1-im.Rank())
		if got, want := sub.ThisImage(), 3-im.Rank(); got != want {
			t.Errorf("image %d: rank %d, want %d", im.Rank(), got, want)
		}
	})
}

func TestFormSiblingsShareObject(t *testing.T) {
	w := newWorld(t, "8(2)")
	teams := make([]*Team, 8)
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		teams[im.Rank()] = v.Form(int64(im.Rank()%2)+1, -1).T
	})
	for r := 2; r < 8; r += 2 {
		if teams[r] != teams[0] {
			t.Fatal("even-team members hold different objects")
		}
	}
	if teams[0] == teams[1] {
		t.Fatal("even and odd teams are the same object")
	}
	if teams[0].ID() == teams[1].ID() {
		t.Fatal("sibling teams share an id")
	}
}

func TestHierarchyIntranodeSetsAndLeaders(t *testing.T) {
	w := newWorld(t, "16(2)") // 8 per node
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		tm := v.T
		if tm.NumNodeGroups() != 2 {
			t.Fatalf("node groups = %d, want 2", tm.NumNodeGroups())
		}
		if len(tm.Leaders()) != 2 || tm.Leaders()[0] != 0 || tm.Leaders()[1] != 8 {
			t.Fatalf("leaders = %v, want [0 8]", tm.Leaders())
		}
		if tm.LeaderOf(3) != 0 || tm.LeaderOf(12) != 8 {
			t.Fatalf("leaderOf wrong: %d %d", tm.LeaderOf(3), tm.LeaderOf(12))
		}
		if tm.LeaderPos(8) != 1 || tm.LeaderPos(3) != -1 {
			t.Fatal("leaderPos wrong")
		}
		g0 := tm.NodeGroup(0)
		if len(g0) != 8 || g0[0] != 0 || g0[7] != 7 {
			t.Fatalf("node group 0 = %v", g0)
		}
	})
}

func TestHierarchyOfSubteamRecomputed(t *testing.T) {
	w := newWorld(t, "16(2)")
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		// Split into odd/even global ranks: each subteam has 4 images
		// per node.
		sub := v.Form(int64(im.Rank()%2)+1, -1)
		tm := sub.T
		if tm.NumNodeGroups() != 2 {
			t.Fatalf("subteam node groups = %d, want 2", tm.NumNodeGroups())
		}
		for gi := 0; gi < 2; gi++ {
			if len(tm.NodeGroup(gi)) != 4 {
				t.Fatalf("subteam node group %d size = %d, want 4", gi, len(tm.NodeGroup(gi)))
			}
		}
		// Leader of each node group is that group's lowest team rank.
		if tm.Leaders()[0] != tm.NodeGroup(0)[0] {
			t.Fatal("leader is not the first member of its node group")
		}
	})
}

func TestFlatHierarchyOneImagePerNode(t *testing.T) {
	w := newWorld(t, "4(4)")
	w.Run(func(im *pgas.Image) {
		tm := Initial(w, im).T
		if tm.NumNodeGroups() != 4 {
			t.Fatalf("node groups = %d, want 4", tm.NumNodeGroups())
		}
		for gi := 0; gi < 4; gi++ {
			if len(tm.NodeGroup(gi)) != 1 {
				t.Fatal("flat hierarchy should have singleton groups")
			}
		}
		if len(tm.Leaders()) != 4 {
			t.Fatal("every image should be a leader")
		}
	})
}

func TestSocketGroups(t *testing.T) {
	w := newWorld(t, "16(2)") // dual socket, 4 cores each
	w.Run(func(im *pgas.Image) {
		tm := Initial(w, im).T
		sg := tm.SocketGroups(0)
		if len(sg) != 2 {
			t.Fatalf("socket groups on node 0 = %d, want 2", len(sg))
		}
		if len(sg[0]) != 4 || len(sg[1]) != 4 {
			t.Fatalf("socket group sizes = %d,%d want 4,4", len(sg[0]), len(sg[1]))
		}
		sl := tm.SocketLeaders(0)
		if len(sl) != 2 || sl[0] != 0 || sl[1] != 4 {
			t.Fatalf("socket leaders = %v, want [0 4]", sl)
		}
	})
}

func TestGridRowColTeams(t *testing.T) {
	w := newWorld(t, "16(2)")
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		row, col, err := v.Grid(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		r, c := im.Rank()/4, im.Rank()%4
		if row.NumImages() != 4 || col.NumImages() != 4 {
			t.Fatalf("row/col sizes %d/%d, want 4/4", row.NumImages(), col.NumImages())
		}
		if row.ThisImage() != c {
			t.Errorf("row rank = %d, want %d", row.ThisImage(), c)
		}
		if col.ThisImage() != r {
			t.Errorf("col rank = %d, want %d", col.ThisImage(), r)
		}
		// Row team members are the images of grid row r, in column order.
		for cc := 0; cc < 4; cc++ {
			if row.T.GlobalRank(cc) != r*4+cc {
				t.Errorf("row member %d = %d, want %d", cc, row.T.GlobalRank(cc), r*4+cc)
			}
		}
		for rr := 0; rr < 4; rr++ {
			if col.T.GlobalRank(rr) != rr*4+c {
				t.Errorf("col member %d = %d, want %d", rr, col.T.GlobalRank(rr), rr*4+c)
			}
		}
	})
}

func TestGridSizeMismatch(t *testing.T) {
	w := newWorld(t, "8(2)")
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		if _, _, err := v.Grid(3, 3); err == nil {
			t.Error("grid 3x3 on 8 images accepted")
		}
		// Recover: everyone still forms a consistent team afterwards.
		sub := v.Form(1, -1)
		if sub.NumImages() != 8 {
			t.Errorf("recovery form size = %d", sub.NumImages())
		}
	})
}

func TestNestedForm(t *testing.T) {
	w := newWorld(t, "16(2)")
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		half := v.Form(int64(im.Rank()/8)+1, -1)       // two halves (one per node)
		quarter := half.Form(int64(im.Rank()%2)+1, -1) // split each half by parity
		if quarter.NumImages() != 4 {
			t.Errorf("quarter size = %d, want 4", quarter.NumImages())
		}
		if quarter.T.Parent() != half.T {
			t.Error("nested parent broken")
		}
		if quarter.T.Parent().Parent() != v.T {
			t.Error("grandparent broken")
		}
	})
}

func TestFormByNode(t *testing.T) {
	w := newWorld(t, "16(4)")
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		nodeTeam := v.FormByNode()
		if nodeTeam.NumImages() != 4 {
			t.Errorf("node team size = %d, want 4", nodeTeam.NumImages())
		}
		for _, g := range nodeTeam.T.Members() {
			if w.Topology().NodeOf(g) != im.Node() {
				t.Error("node team contains a remote image")
			}
		}
		if nodeTeam.T.NumNodeGroups() != 1 {
			t.Error("node team should be a single intranode set")
		}
	})
}

func TestRankOfNonMember(t *testing.T) {
	w := newWorld(t, "4(2)")
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		sub := v.Form(int64(im.Rank()%2)+1, -1)
		other := (im.Rank() + 1) % 4
		if sub.T.RankOf(other) != -1 {
			t.Errorf("non-member %d has rank %d in the other team", other, sub.T.RankOf(other))
		}
	})
}

func TestFormChargesTime(t *testing.T) {
	w := newWorld(t, "16(2)")
	var maxEnd sim.Time
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		_ = v.Form(1, -1)
		if im.Now() > maxEnd {
			maxEnd = im.Now()
		}
	})
	if maxEnd == 0 {
		t.Fatal("team formation charged no simulated time")
	}
}

func TestFormDeterministicIDs(t *testing.T) {
	run := func() string {
		w := newWorld(t, "8(2)")
		var desc string
		w.Run(func(im *pgas.Image) {
			v := Initial(w, im)
			sub := v.Form(int64(im.Rank()%2)+1, -1)
			if im.Rank() == 0 {
				desc = fmt.Sprintf("%d:%d:%s", v.T.ID(), sub.T.ID(), sub.T.String())
			}
		})
		return desc
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("team ids differ across runs: %q vs %q", a, b)
	}
}

func TestFormRejectsBadNumber(t *testing.T) {
	w := newWorld(t, "4(2)")
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive team number accepted")
		}
	}()
	w.Run(func(im *pgas.Image) {
		Initial(w, im).Form(0, -1)
	})
}

func TestSingletonTeams(t *testing.T) {
	w := newWorld(t, "4(2)")
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		solo := v.Form(int64(im.Rank())+1, -1)
		if solo.NumImages() != 1 {
			t.Errorf("solo team size = %d", solo.NumImages())
		}
		if solo.ThisImage() != 0 {
			t.Error("solo rank != 0")
		}
		if len(solo.T.Leaders()) != 1 || solo.T.Leaders()[0] != 0 {
			t.Error("solo leader wrong")
		}
	})
}

// Property: team formation partitions the parent team for any color
// assignment — every member lands in exactly one subteam, subteams are
// disjoint, and hierarchy invariants hold (leaders are the first member of
// their node group; node groups partition the team).
func TestFormPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := rng.Intn(4) + 1
		per := rng.Intn(6) + 1
		colors := rng.Intn(4) + 1
		spec := fmt.Sprintf("%d(%d)", nodes*per, nodes)
		topo, err := topology.ParseSpec(spec)
		if err != nil {
			return false
		}
		w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
		if err != nil {
			return false
		}
		n := w.NumImages()
		assign := make([]int64, n)
		for i := range assign {
			assign[i] = int64(rng.Intn(colors)) + 1
		}
		subs := make([]*Team, n)
		ok := true
		w.Run(func(im *pgas.Image) {
			v := Initial(w, im)
			sub := v.Form(assign[im.Rank()], -1)
			subs[im.Rank()] = sub.T
			// Hierarchy invariants.
			tm := sub.T
			seen := map[int]bool{}
			for gi := 0; gi < tm.NumNodeGroups(); gi++ {
				grp := tm.NodeGroup(gi)
				if tm.Leaders()[gi] != grp[0] {
					ok = false
				}
				for _, r := range grp {
					if seen[r] {
						ok = false
					}
					seen[r] = true
					if w.Topology().NodeOf(tm.GlobalRank(r)) != tm.Nodes()[gi] {
						ok = false
					}
				}
			}
			if len(seen) != tm.Size() {
				ok = false
			}
		})
		// Partition: members of each team are exactly the ranks with that
		// color, and sibling objects are shared.
		for r := 0; r < n; r++ {
			tm := subs[r]
			if tm.RankOf(r) < 0 {
				return false
			}
			count := 0
			for r2 := 0; r2 < n; r2++ {
				if assign[r2] == assign[r] {
					count++
					if subs[r2] != tm {
						return false
					}
				} else if tm.RankOf(r2) != -1 {
					return false
				}
			}
			if tm.Size() != count {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRankChain: the node groups in team rank order, and whether they tile
// the rank range. Block placement: the identity, contiguous. The same images
// in reverse rank order: the chain runs the node groups backwards, still
// contiguous. Cyclic placement: every group is scattered over the ranks.
// RankLeaders and ChainPos are the same order seen from the leaders: ascending
// team ranks, and each group's index among them.
func TestRankChain(t *testing.T) {
	w := newWorld(t, "6(3)")
	w.Run(func(im *pgas.Image) {
		v := Initial(w, im)
		if order, contiguous := v.T.RankChain(); !contiguous || fmt.Sprint(order) != "[0 1 2]" {
			t.Errorf("block placement: chain %v, contiguous %v", order, contiguous)
		}
		rev := v.Form(1, v.NumImages()-1-im.Rank())
		if order, contiguous := rev.T.RankChain(); !contiguous || fmt.Sprint(order) != "[2 1 0]" {
			t.Errorf("reversed ranks: chain %v, contiguous %v", order, contiguous)
		}
		if l, pos := rev.T.RankLeaders(), rev.T.ChainPos(rev.T.GroupOf(rev.Rank)); fmt.Sprint(l) != "[0 2 4]" || l[pos] != rev.T.LeaderOf(rev.Rank) {
			t.Errorf("reversed ranks: rank-ordered leaders %v, rank %d at position %d", l, rev.Rank, pos)
		}
	})
	topo, err := topology.New(3, 2, 1, 6, topology.PlaceCyclic)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
	if err != nil {
		t.Fatal(err)
	}
	wc.Run(func(im *pgas.Image) {
		if order, contiguous := Initial(wc, im).T.RankChain(); contiguous || len(order) != 3 {
			t.Errorf("cyclic placement: chain %v, contiguous %v", order, contiguous)
		}
	})
}

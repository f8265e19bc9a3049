package team_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cafteams/internal/core"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
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
		v := team.Initial(w, im)
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
	teams := make([]*team.Team, 4)
	w.Run(func(im *pgas.Image) {
		teams[im.Rank()] = team.Initial(w, im).T
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
		v := team.Initial(w, im)
		sub := core.Form(v, int64(im.Rank()%2)+1, -1)
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
		v := team.Initial(w, im)
		// Reverse order within the single new team.
		sub := core.Form(v, 1, v.NumImages()-1-im.Rank())
		if got, want := sub.ThisImage(), 3-im.Rank(); got != want {
			t.Errorf("image %d: rank %d, want %d", im.Rank(), got, want)
		}
	})
}

func TestFormSiblingsShareObject(t *testing.T) {
	w := newWorld(t, "8(2)")
	teams := make([]*team.Team, 8)
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		teams[im.Rank()] = core.Form(v, int64(im.Rank()%2)+1, -1).T
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
		v := team.Initial(w, im)
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
		if tm.GroupOf(8) != 1 || tm.Leaders()[tm.GroupOf(12)] != tm.LeaderOf(12) {
			t.Fatalf("groupOf wrong: %d %d", tm.GroupOf(8), tm.GroupOf(12))
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
		v := team.Initial(w, im)
		// Split into odd/even global ranks: each subteam has 4 images
		// per node.
		sub := core.Form(v, int64(im.Rank()%2)+1, -1)
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
		tm := team.Initial(w, im).T
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
		tm := team.Initial(w, im).T
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
		v := team.Initial(w, im)
		row, col, err := core.Grid(v, 4, 4)
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
		v := team.Initial(w, im)
		if _, _, err := core.Grid(v, 3, 3); err == nil {
			t.Error("grid 3x3 on 8 images accepted")
		}
		// Recover: everyone still forms a consistent team afterwards.
		sub := core.Form(v, 1, -1)
		if sub.NumImages() != 8 {
			t.Errorf("recovery form size = %d", sub.NumImages())
		}
	})
}

func TestNestedForm(t *testing.T) {
	w := newWorld(t, "16(2)")
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		half := core.Form(v, int64(im.Rank()/8)+1, -1)       // two halves (one per node)
		quarter := core.Form(half, int64(im.Rank()%2)+1, -1) // split each half by parity
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
		v := team.Initial(w, im)
		nodeTeam := core.FormByNode(v)
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
		v := team.Initial(w, im)
		sub := core.Form(v, int64(im.Rank()%2)+1, -1)
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
		v := team.Initial(w, im)
		_ = core.Form(v, 1, -1)
		if im.Now() > maxEnd {
			maxEnd = im.Now()
		}
	})
	if maxEnd == 0 {
		t.Fatal("team formation charged no simulated time")
	}
}

// TestFormIsOneAllgather: FORM TEAM's messages are those of one
// AllgatherTwoLevel of two int64 per image on the parent team, and nothing
// else — every member's (number, index) pair, charged as data.
func TestFormIsOneAllgather(t *testing.T) {
	for _, spec := range []string{"64(8)", "13(4)"} {
		count := func(body func(v *team.View)) trace.Snapshot {
			w := newWorld(t, spec)
			w.Run(func(im *pgas.Image) { body(team.Initial(w, im)) })
			return w.Stats().Snapshot()
		}
		form := count(func(v *team.View) { core.Form(v, int64(v.Rank%3)+1, -1) })
		gather := count(func(v *team.View) {
			core.AllgatherTwoLevel(v, []int64{1, 2}, make([]int64, 2*v.NumImages()))
		})
		if form.IntraMsgs != gather.IntraMsgs || form.InterMsgs != gather.InterMsgs ||
			form.IntraBytes != gather.IntraBytes || form.InterBytes != gather.InterBytes {
			t.Errorf("%s: form sent intra %d msgs/%d B, inter %d msgs/%d B; one allgather sends %d/%d, %d/%d", spec,
				form.IntraMsgs, form.IntraBytes, form.InterMsgs, form.InterBytes,
				gather.IntraMsgs, gather.IntraBytes, gather.InterMsgs, gather.InterBytes)
		}
	}
}

func TestFormDeterministicIDs(t *testing.T) {
	run := func() string {
		w := newWorld(t, "8(2)")
		var desc string
		w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			sub := core.Form(v, int64(im.Rank()%2)+1, -1)
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
		core.Form(team.Initial(w, im), 0, -1)
	})
}

func TestSingletonTeams(t *testing.T) {
	w := newWorld(t, "4(2)")
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		solo := core.Form(v, int64(im.Rank())+1, -1)
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
		subs := make([]*team.Team, n)
		ok := true
		w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			sub := core.Form(v, assign[im.Rank()], -1)
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

// TestRankChain: the node groups come in team rank order, each led by its
// lowest rank, whatever the node ids, and Contiguous tells whether every group
// is a run of consecutive ranks. Block placement: node order is rank order.
// The same images in reverse rank order: the groups, their nodes descending,
// still contiguous. Cyclic placement: every group is scattered over the ranks.
func TestRankChain(t *testing.T) {
	w := newWorld(t, "6(3)")
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		if tm := v.T; !tm.Contiguous() || fmt.Sprint(tm.Nodes(), tm.Leaders()) != "[0 1 2] [0 2 4]" {
			t.Errorf("block placement: nodes %v, leaders %v, contiguous %v", tm.Nodes(), tm.Leaders(), tm.Contiguous())
		}
		rev := core.Form(v, 1, v.NumImages()-1-im.Rank())
		if tm := rev.T; !tm.Contiguous() || fmt.Sprint(tm.Nodes(), tm.Leaders()) != "[2 1 0] [0 2 4]" {
			t.Errorf("reversed ranks: nodes %v, leaders %v, contiguous %v", tm.Nodes(), tm.Leaders(), tm.Contiguous())
		}
		if tm := rev.T; tm.Leaders()[tm.GroupOf(rev.Rank)] != tm.LeaderOf(rev.Rank) {
			t.Errorf("reversed ranks: rank %d in group %d, led by %d, not %d", rev.Rank, tm.GroupOf(rev.Rank), tm.LeaderOf(rev.Rank), tm.Leaders()[tm.GroupOf(rev.Rank)])
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
		if tm := team.Initial(wc, im).T; tm.Contiguous() || fmt.Sprint(tm.NodeGroup(0), tm.NodeGroup(1), tm.NodeGroup(2)) != "[0 3] [1 4] [2 5]" {
			t.Errorf("cyclic placement: groups %v %v %v, contiguous %v", tm.NodeGroup(0), tm.NodeGroup(1), tm.NodeGroup(2), tm.Contiguous())
		}
	})
}

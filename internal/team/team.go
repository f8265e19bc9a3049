// Package team implements Fortran-2015-style teams for the simulated PGAS
// runtime: the initial team, collective team formation (form team),
// team-relative image intrinsics (this_image, num_images, image_index), and
// sibling/parent navigation (get_team, team_id).
//
// On top of the bare team structure, every team carries a *hierarchy view*:
// its members grouped by physical node (the paper's "intranode sets"), a
// designated leader per node, and the ordered leader list. This is the
// information the memory-hierarchy-aware collectives in internal/core
// consume. The same grouping is also computed per socket, supporting the
// multi-level extension the paper lists as future work.
package team

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"cafteams/internal/pgas"
)

// Team is the shared, immutable description of one team. All member images
// hold the same *Team; per-image state (the image's rank within the team)
// lives in View.
type Team struct {
	w       *pgas.World
	id      int64 // unique within the world
	number  int64 // the team_number used at formation (1 for initial team)
	parent  *Team
	members []int       // global ranks in team order
	rankOf  map[int]int // global rank -> team rank

	// Node-level hierarchy (2-level methodology).
	nodes      []int       // distinct nodes hosting members, ascending
	nodeGroups [][]int     // team ranks per entry of nodes, ascending
	groupOf    []int       // team rank -> index into nodes/nodeGroups
	leaders    []int       // team rank of each node group's leader
	leaderOf   []int       // team rank -> its node leader's team rank
	leaderPos  map[int]int // leader team rank -> index in leaders
	maxGroup   int         // size of the largest node group

	// Socket-level hierarchy (3-level extension): within each node group,
	// members split by socket.
	socketGroups   [][][]int // [node group][socket group] -> team ranks
	socketLeader   [][]int   // [node group] -> team rank of each socket leader
	maxSocketGroup int       // size of the largest socket group
	maxSockets     int       // most socket groups on one node

	// Rank order of the node groups (prefix collectives chain along it).
	rankChain      []int // node-group indices ordered by each group's first team rank
	rankContiguous bool  // the groups tile the team rank range in that order
	rankLeaders    []int // the leaders in that order: ascending team rank
	chainPos       []int // node-group index -> its position in rankChain
}

// View is one image's handle on a team (the team_type value).
type View struct {
	T    *Team
	Rank int // this image's team rank, 0-based
	Img  *pgas.Image

	// memo caches per-view lookups of per-team objects (see Cached): a
	// handful of entries per view, so a slice scanned in order — at 4096
	// images a map per view is most of a megabyte per collective.
	memo []memoEntry
}

type memoEntry struct {
	key MemoKey
	val interface{}
}

// AlgName names one algorithm instance in parts: the algorithm, then
// whatever tells instances apart — the reduction, the path, the element type.
// It is comparable, so it keys view-cached lookups as it is; the parts are
// joined into the world-registry name (String) only when a lookup misses.
type AlgName [5]string

// used is the number of parts up to the last non-empty one.
func (a AlgName) used() int {
	n := len(a)
	for n > 0 && a[n-1] == "" {
		n--
	}
	return n
}

// With returns a with parts appended.
func (a AlgName) With(parts ...string) AlgName {
	n := a.used()
	if n+len(parts) > len(a) {
		// (parts stays out of the message: formatting it would move every
		// caller's argument list to the heap.)
		panic(fmt.Sprintf("team: algorithm name %v has no room for %d more parts", a, len(parts)))
	}
	copy(a[n:], parts)
	return a
}

// String joins the parts with dots.
func (a AlgName) String() string { return strings.Join(a[:a.used()], ".") }

// MemoKey keys one view-cached lookup: a kind tag and, for per-algorithm
// objects, the algorithm instance. It is a comparable struct so lookups build
// no strings and box no keys.
type MemoKey struct {
	Kind string
	Alg  AlgName
}

// Cached returns the view-cached value for key, nil when there is none yet.
// The collective layers use the cache to skip per-episode registry lookups
// (and their formatted string keys) on the hot path: the view is one image's
// private handle, so no locking is needed on either backend. What a miss
// stores (Cache) is typically an object the world registry shares team-wide,
// or a buffer private to this image.
func (v *View) Cached(key MemoKey) interface{} {
	for i := range v.memo {
		if v.memo[i].key == key {
			return v.memo[i].val
		}
	}
	return nil
}

// Cache stores x as the view-cached value for key, which Cached just missed,
// and returns it.
func (v *View) Cache(key MemoKey, x interface{}) interface{} {
	v.memo = append(v.memo, memoEntry{key, x})
	return x
}

// idCounter lives in the world registry so ids are unique per world. The
// increment is atomic: on the native backend sibling subteams can be built
// concurrently by racing leader images.
type idCounter struct{ next int64 }

func nextTeamID(w *pgas.World) int64 {
	c := pgas.LookupOrCreate(w, "team:idcounter", func() interface{} { return &idCounter{} }).(*idCounter)
	return atomic.AddInt64(&c.next, 1)
}

// build computes the hierarchy views for a member list.
func build(w *pgas.World, id, number int64, parent *Team, members []int) *Team {
	t := &Team{
		w:       w,
		id:      id,
		number:  number,
		parent:  parent,
		members: append([]int(nil), members...),
		rankOf:  make(map[int]int, len(members)),
	}
	for r, g := range t.members {
		t.rankOf[g] = r
	}
	topo := w.Topology()
	// Group team ranks by node.
	byNode := make(map[int][]int)
	for r, g := range t.members {
		n := topo.NodeOf(g)
		byNode[n] = append(byNode[n], r)
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	t.nodes = nodes
	t.groupOf = make([]int, len(t.members))
	t.leaderOf = make([]int, len(t.members))
	t.leaderPos = make(map[int]int)
	for gi, n := range t.nodes {
		grp := byNode[n]
		sort.Ints(grp)
		t.nodeGroups = append(t.nodeGroups, grp)
		if len(grp) > t.maxGroup {
			t.maxGroup = len(grp)
		}
		leader := grp[0]
		t.leaders = append(t.leaders, leader)
		t.leaderPos[leader] = gi
		for _, r := range grp {
			t.groupOf[r] = gi
			t.leaderOf[r] = leader
		}
		// Socket split within the node group.
		bySocket := make(map[int][]int)
		for _, r := range grp {
			_, s := topo.SocketOf(t.members[r])
			bySocket[s] = append(bySocket[s], r)
		}
		var socks []int
		for s := range bySocket {
			socks = append(socks, s)
		}
		sort.Ints(socks)
		var sgroups [][]int
		var sleaders []int
		for _, s := range socks {
			sg := bySocket[s]
			sort.Ints(sg)
			sgroups = append(sgroups, sg)
			sleaders = append(sleaders, sg[0])
			t.maxSocketGroup = max(t.maxSocketGroup, len(sg))
		}
		t.maxSockets = max(t.maxSockets, len(sgroups))
		t.socketGroups = append(t.socketGroups, sgroups)
		t.socketLeader = append(t.socketLeader, sleaders)
	}
	t.rankChain = make([]int, len(t.nodes))
	for i := range t.rankChain {
		t.rankChain[i] = i
	}
	slices.SortFunc(t.rankChain, func(a, b int) int { return t.nodeGroups[a][0] - t.nodeGroups[b][0] })
	t.rankLeaders = make([]int, len(t.nodes))
	t.chainPos = make([]int, len(t.nodes))
	next := 0
	t.rankContiguous = true
	for i, gi := range t.rankChain {
		t.rankLeaders[i], t.chainPos[gi] = t.leaders[gi], i
		for _, r := range t.nodeGroups[gi] {
			t.rankContiguous = t.rankContiguous && r == next
			next++
		}
	}
	return t
}

// Initial returns the world's initial team (all images), creating it on
// first use. Collective.
func Initial(w *pgas.World, img *pgas.Image) *View {
	t := pgas.LookupOrCreate(w, "team:initial", func() interface{} {
		members := make([]int, w.NumImages())
		for i := range members {
			members[i] = i
		}
		return build(w, nextTeamID(w), 1, nil, members)
	}).(*Team)
	return &View{T: t, Rank: t.rankOf[img.Rank()], Img: img}
}

// ID returns the unique team identifier.
func (t *Team) ID() int64 { return t.id }

// Number returns the team_number given at formation (the CAF team_id
// intrinsic reports this).
func (t *Team) Number() int64 { return t.number }

// Parent returns the parent team (nil for the initial team). This is the
// CAF get_team(parent_team) navigation.
func (t *Team) Parent() *Team { return t.parent }

// Size returns the number of member images.
func (t *Team) Size() int { return len(t.members) }

// Members returns the global ranks of the members in team order. The caller
// must not modify the returned slice.
func (t *Team) Members() []int { return t.members }

// GlobalRank maps a team rank to the image's global (initial-team) rank —
// the CAF image_index intrinsic.
func (t *Team) GlobalRank(teamRank int) int { return t.members[teamRank] }

// RankOf maps a global rank to the team rank, or -1 if not a member.
func (t *Team) RankOf(globalRank int) int {
	if r, ok := t.rankOf[globalRank]; ok {
		return r
	}
	return -1
}

// Nodes returns the distinct nodes hosting team members, ascending.
func (t *Team) Nodes() []int { return t.nodes }

// NodeGroup returns the team ranks on the gi-th node, ascending.
func (t *Team) NodeGroup(gi int) []int { return t.nodeGroups[gi] }

// MaxNodeGroup returns the size of the team's largest intranode set — the
// quantity every two-level inbox layout is sized from.
func (t *Team) MaxNodeGroup() int { return t.maxGroup }

// NumNodeGroups returns how many nodes host members of this team.
func (t *Team) NumNodeGroups() int { return len(t.nodes) }

// Leaders returns the team rank of each node group's leader, in node order.
func (t *Team) Leaders() []int { return t.leaders }

// LeaderOf returns the team rank of the node leader for team rank r.
func (t *Team) LeaderOf(r int) int { return t.leaderOf[r] }

// LeaderPos returns the index of leader team rank r within Leaders, or -1.
func (t *Team) LeaderPos(r int) int {
	if p, ok := t.leaderPos[r]; ok {
		return p
	}
	return -1
}

// GroupOf returns the node-group index of team rank r.
func (t *Team) GroupOf(r int) int { return t.groupOf[r] }

// SocketGroups returns the socket-level split of node group gi.
func (t *Team) SocketGroups(gi int) [][]int { return t.socketGroups[gi] }

// SocketLeaders returns the team rank of each socket leader in node group
// gi.
func (t *Team) SocketLeaders(gi int) []int { return t.socketLeader[gi] }

// MaxSocketGroup returns the size of the team's largest socket group: with
// MaxSockets, what the three-level inbox layout is sized from.
func (t *Team) MaxSocketGroup() int { return t.maxSocketGroup }

// MaxSockets returns the most socket groups (so, socket leaders) on one node.
func (t *Team) MaxSockets() int { return t.maxSockets }

// RankChain returns the node-group indices ordered by each group's first team
// rank, and whether the groups tile the team contiguously in that order (every
// group's ranks consecutive, each group starting where the previous ended).
// Only then does a prefix reduction decompose into per-node segments plus one
// inter-node scan of group totals. The slice is the team's own: read-only.
func (t *Team) RankChain() (order []int, contiguous bool) { return t.rankChain, t.rankContiguous }

// RankLeaders returns the node leaders in rank-chain order (ascending team
// rank: a leader is its group's lowest rank) — the subgroup a log-depth prefix
// reduction of node totals runs over. The slice is the team's own: read-only.
func (t *Team) RankLeaders() []int { return t.rankLeaders }

// ChainPos returns the position of node group gi in the rank chain: the index
// of its leader in RankLeaders.
func (t *Team) ChainPos(gi int) int { return t.chainPos[gi] }

// NumImages is the team-relative num_images intrinsic.
func (v *View) NumImages() int { return v.T.Size() }

// ThisImage is the team-relative this_image intrinsic (0-based internally;
// the public caf package presents the Fortran 1-based convention).
func (v *View) ThisImage() int { return v.Rank }

// GlobalRank returns this image's global rank.
func (v *View) GlobalRank() int { return v.Img.Rank() }

// String describes the team.
func (t *Team) String() string {
	return fmt.Sprintf("team(id=%d number=%d size=%d nodes=%d)",
		t.id, t.number, len(t.members), len(t.nodes))
}

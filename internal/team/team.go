// Package team implements Fortran-2015-style teams for the simulated PGAS
// runtime: the initial team, the local half of team formation (form team:
// core.Form exchanges the numbers and indices, Split divides the team),
// team-relative image intrinsics (this_image, num_images, image_index), and
// sibling/parent navigation (get_team, team_id).
//
// On top of the bare team structure, every team carries a *hierarchy view*:
// its members grouped by physical node (the paper's "intranode sets"), a
// designated leader per node, and the ordered leader list. This is the
// information the memory-hierarchy-aware collectives in internal/core
// consume. The same grouping is also computed per socket, supporting the
// multi-level extension the paper lists as future work. The view has one
// order: a group, node or socket, comes where its lowest team rank does, and
// that rank leads it, so the leader list ascends in team rank whatever the
// node ids.
package team

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"cafteams/internal/pgas"
)

// Team is the shared, immutable description of one team. All member images
// hold the same *Team; per-image state (the image's rank within the team)
// lives in View. The team owns what is scoped to it — collective state and
// scratch, team coarrays, formation counters — in its registry, so a team the
// program drops is collected with all of it.
type Team struct {
	w       *pgas.World
	reg     pgas.Registry
	id      int64 // unique within the world
	number  int64 // the team_number used at formation (1 for initial team)
	parent  *Team
	members []int       // global ranks in team order
	ranks   []int       // [0..size), the parent's prefix
	rankOf  map[int]int // global rank -> team rank

	// Node-level hierarchy (2-level methodology), in one order: a group
	// comes where its lowest team rank does, and that rank leads it.
	nodes      []int   // the node hosting each group
	nodeGroups [][]int // team ranks per group, ascending
	groupOf    []int   // team rank -> index into nodes/nodeGroups
	leaders    []int   // team rank of each group's leader: its lowest
	maxGroup   int     // size of the largest node group
	contiguous bool    // every group's team ranks are consecutive

	// Socket-level hierarchy (3-level extension): within each node group,
	// members split by socket, in the same order.
	socketGroups   [][][]int // [node group][socket group] -> team ranks
	socketLeader   [][]int   // [node group] -> team rank of each socket leader
	maxSocketGroup int       // size of the largest socket group
	maxSockets     int       // most socket groups on one node
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
	key AlgName
	val interface{}
}

// AlgName names one algorithm instance in parts: the algorithm, then
// whatever tells instances apart — the reduction, the path, the element type.
// It is comparable, so it keys lookups as it is; the parts are joined (String)
// only to name the objects a lookup that misses creates.
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

// Cached returns the view-cached value for key, nil when there is none yet.
// The collective layers use the cache to skip per-episode registry lookups
// on the hot path: the view is one image's private handle, so no locking is
// needed on either backend. What a miss stores (Cache) is typically an
// image's handle on an object the team's registry shares team-wide.
func (v *View) Cached(key AlgName) interface{} {
	for i := range v.memo {
		if v.memo[i].key == key {
			return v.memo[i].val
		}
	}
	return nil
}

// Cache stores x as the view-cached value for key, which Cached just missed,
// and returns it.
func (v *View) Cache(key AlgName, x interface{}) interface{} {
	v.memo = append(v.memo, memoEntry{key, x})
	return x
}

// Registry returns the team's registry: what it holds lives as long as the
// team.
func (t *Team) Registry() *pgas.Registry { return &t.reg }

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
	t.ranks = t.members // the initial team's members are [0..size)
	if parent != nil {
		t.ranks = parent.ranks[:len(members)]
	}
	topo := w.Topology()
	t.groupOf = make([]int, len(t.members))
	groupAt := make(map[int]int) // node -> index of its group
	var sockets [][]int          // [node group] -> socket of each socket group
	for r, g := range t.members {
		node, socket := topo.SocketOf(g)
		gi, ok := groupAt[node]
		if !ok {
			gi = len(t.nodes)
			groupAt[node] = gi
			t.nodes = append(t.nodes, node)
			t.nodeGroups = append(t.nodeGroups, nil)
			t.leaders = append(t.leaders, r)
			t.socketGroups = append(t.socketGroups, nil)
			t.socketLeader = append(t.socketLeader, nil)
			sockets = append(sockets, nil)
		}
		t.nodeGroups[gi] = append(t.nodeGroups[gi], r)
		t.groupOf[r] = gi
		si := slices.Index(sockets[gi], socket)
		if si < 0 {
			si = len(sockets[gi])
			sockets[gi] = append(sockets[gi], socket)
			t.socketGroups[gi] = append(t.socketGroups[gi], nil)
			t.socketLeader[gi] = append(t.socketLeader[gi], r)
		}
		t.socketGroups[gi][si] = append(t.socketGroups[gi][si], r)
	}
	t.contiguous = true
	for gi, grp := range t.nodeGroups {
		t.maxGroup = max(t.maxGroup, len(grp))
		t.contiguous = t.contiguous && grp[len(grp)-1]-grp[0] == len(grp)-1
		t.maxSockets = max(t.maxSockets, len(t.socketGroups[gi]))
		for _, sg := range t.socketGroups[gi] {
			t.maxSocketGroup = max(t.maxSocketGroup, len(sg))
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

// Ranks returns [0..size): the whole team as a subgroup of team ranks. The
// caller must not modify the returned slice.
func (t *Team) Ranks() []int { return t.ranks }

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

// Nodes returns the node hosting each node group, in group order: by each
// group's lowest team rank.
func (t *Team) Nodes() []int { return t.nodes }

// NodeGroup returns the team ranks of the gi-th node group, ascending.
func (t *Team) NodeGroup(gi int) []int { return t.nodeGroups[gi] }

// MaxNodeGroup returns the size of the team's largest intranode set — the
// quantity every two-level inbox layout is sized from.
func (t *Team) MaxNodeGroup() int { return t.maxGroup }

// NumNodeGroups returns how many nodes host members of this team.
func (t *Team) NumNodeGroups() int { return len(t.nodes) }

// Leaders returns the team rank of each node group's leader, in group order:
// ascending, each group led by its lowest team rank, so Leaders()[GroupOf(r)]
// is LeaderOf(r).
func (t *Team) Leaders() []int { return t.leaders }

// LeaderOf returns the team rank of the node leader for team rank r.
func (t *Team) LeaderOf(r int) int { return t.leaders[t.groupOf[r]] }

// GroupOf returns the node-group index of team rank r.
func (t *Team) GroupOf(r int) int { return t.groupOf[r] }

// SocketGroups returns the socket-level split of node group gi, each socket
// group led by, and ordered by, its lowest team rank.
func (t *Team) SocketGroups(gi int) [][]int { return t.socketGroups[gi] }

// SocketLeaders returns the team rank of each socket leader in node group
// gi.
func (t *Team) SocketLeaders(gi int) []int { return t.socketLeader[gi] }

// MaxSocketGroup returns the size of the team's largest socket group: with
// MaxSockets, what the three-level inbox layout is sized from.
func (t *Team) MaxSocketGroup() int { return t.maxSocketGroup }

// MaxSockets returns the most socket groups (so, socket leaders) on one node.
func (t *Team) MaxSockets() int { return t.maxSockets }

// Contiguous reports whether every node group's team ranks are consecutive:
// the groups then tile the team's rank range in group order, and a prefix
// reduction decomposes into per-node segments plus one inter-node scan of
// group totals.
func (t *Team) Contiguous() bool { return t.contiguous }

// NumImages is the team-relative num_images intrinsic.
func (v *View) NumImages() int { return v.T.Size() }

// ThisImage is the team-relative this_image intrinsic (0-based internally;
// the public caf package presents the Fortran 1-based convention).
func (v *View) ThisImage() int { return v.Rank }

// String describes the team.
func (t *Team) String() string {
	return fmt.Sprintf("team(id=%d number=%d size=%d nodes=%d)",
		t.id, t.number, len(t.members), len(t.nodes))
}

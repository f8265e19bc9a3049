package coll

import (
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// SubgroupDissemination is the classic dissemination barrier (Hensgen,
// Finkel, Manber; Mellor-Crummey & Scott) over one-sided puts, among an
// arbitrary subgroup of a team: in round k, the member at index i notifies
// the member at index (i + 2^k) mod g and waits for its own round-k flag.
// g·ceil(log2 g) notifications total. group lists the participating team
// ranks, myIdx is the caller's index within it; the round flags are slots
// base.. of st, whose episode ep the caller has claimed. The flat barrier
// runs it over the whole team, the hierarchy-aware barriers of internal/core
// over the node leaders.
func SubgroupDissemination(v *team.View, st *State, base int, group []int, myIdx int, ep int64) {
	g := len(group)
	for k := 0; 1<<k < g; k++ {
		partner := group[(myIdx+1<<k)%g]
		v.Img.NotifyAdd(st.Flags, v.T.GlobalRank(partner), base+k, 1, pgas.ViaConduit)
		v.Img.WaitFlagGE(st.Flags, v.Img.Rank(), base+k, ep)
	}
}

// SubgroupLinear is the centralized linear barrier among a subgroup (same
// arguments as SubgroupDissemination): 2(g−1) notifications, all serialized
// through the group's first member. Slot base counts arrivals at it; slot
// base+1 carries its release stamp.
func SubgroupLinear(v *team.View, st *State, base int, group []int, myIdx int, ep int64) {
	g := len(group)
	if g == 1 {
		return
	}
	if myIdx == 0 {
		v.Img.WaitFlagGE(st.Flags, v.Img.Rank(), base, ep*int64(g-1))
		for _, r := range group[1:] {
			v.Img.NotifySet(st.Flags, v.T.GlobalRank(r), base+1, ep, pgas.ViaConduit)
		}
		return
	}
	v.Img.NotifyAdd(st.Flags, v.T.GlobalRank(group[0]), base, 1, pgas.ViaConduit)
	v.Img.WaitFlagGE(st.Flags, v.Img.Rank(), base+1, ep)
}

// BarrierDissemination is the dissemination barrier over the whole team —
// the algorithm the paper's baseline UHCAF runtime uses for every barrier,
// regardless of placement.
func BarrierDissemination(v *team.View) {
	n := v.NumImages()
	v.Img.World().Stats().Count(trace.OpBarrier)
	if n == 1 {
		return
	}
	st := GetState(v, Alg{"bar.diss"}, Rounds(n))
	SubgroupDissemination(v, st, 0, TeamRanks(v), v.Rank, st.Next())
}

// BarrierLinear is the centralized linear barrier the paper contrasts with
// dissemination, over the whole team.
func BarrierLinear(v *team.View) {
	v.Img.World().Stats().Count(trace.OpBarrier)
	if v.NumImages() == 1 {
		return
	}
	st := GetState(v, Alg{"bar.lin"}, 2)
	SubgroupLinear(v, st, 0, TeamRanks(v), v.Rank, st.Next())
}

// BarrierTree is a binomial-tree barrier: gather up the tree (each internal
// node waits for its children), release back down. 2(n−1) messages like the
// linear barrier, but logarithmic depth and no single hot spot.
// Slot 0 counts child arrivals; slot 1 carries the release stamp.
func BarrierTree(v *team.View) {
	n := v.NumImages()
	v.Img.World().Stats().Count(trace.OpBarrier)
	if n == 1 {
		return
	}
	st := GetState(v, Alg{"bar.tree"}, 2)
	ep := st.Next()
	r := v.Rank
	kids := binomialChildren(r, n)
	if len(kids) > 0 {
		v.Img.WaitFlagGE(st.Flags, v.Img.Rank(), 0, ep*int64(len(kids)))
	}
	if r != 0 {
		parent := r - (r & -r)
		v.Img.NotifyAdd(st.Flags, v.T.GlobalRank(parent), 0, 1, pgas.ViaConduit)
		v.Img.WaitFlagGE(st.Flags, v.Img.Rank(), 1, ep)
	}
	for _, c := range kids {
		v.Img.NotifySet(st.Flags, v.T.GlobalRank(c), 1, ep, pgas.ViaConduit)
	}
}

// binomialChildren returns the children of rank r in a binomial tree of n
// ranks rooted at 0: r + 2^k for each k below the position of r's lowest
// set bit (all k for the root).
func binomialChildren(r, n int) []int {
	kids := make([]int, binomialFanout(r, n))
	for k := range kids {
		kids[k] = r + 1<<k
	}
	return kids
}

// binomialFanout returns how many children rank r has in that tree; they sit
// on edges 0..fanout−1, the edge-k child at distance 2^k.
func binomialFanout(r, n int) int {
	limit := r & -r
	if r == 0 {
		limit = 1 << 30
	}
	k := 0
	for 1<<k < limit && r+1<<k < n {
		k++
	}
	return k
}

// BarrierTournament is the tournament barrier of Mellor-Crummey & Scott:
// statically paired rounds where the "loser" notifies the "winner" and
// waits; the champion starts a logarithmic release wave. Arrival uses one
// flag slot per round; release uses one slot per round offset by the round
// count.
func BarrierTournament(v *team.View) {
	n := v.NumImages()
	v.Img.World().Stats().Count(trace.OpBarrier)
	if n == 1 {
		return
	}
	nr := Rounds(n)
	st := GetState(v, Alg{"bar.tour"}, 2*nr)
	ep := st.Next()
	r := v.Rank
	lost := -1
	for k := 0; 1<<k < n; k++ {
		if r%(1<<(k+1)) != 0 {
			// Loser: report to the winner and stop advancing.
			winner := r - 1<<k
			v.Img.NotifyAdd(st.Flags, v.T.GlobalRank(winner), k, 1, pgas.ViaConduit)
			lost = k
			break
		}
		partner := r + 1<<k
		if partner < n {
			v.Img.WaitFlagGE(st.Flags, v.Img.Rank(), k, ep)
		}
	}
	if lost >= 0 {
		v.Img.WaitFlagGE(st.Flags, v.Img.Rank(), nr+lost, ep)
	}
	// Wake everyone we beat, in reverse round order.
	start := nr - 1
	if lost >= 0 {
		start = lost - 1
	}
	for k := start; k >= 0; k-- {
		if r%(1<<(k+1)) == 0 {
			partner := r + 1<<k
			if partner < n {
				v.Img.NotifySet(st.Flags, v.T.GlobalRank(partner), nr+k, ep, pgas.ViaConduit)
			}
		}
	}
}

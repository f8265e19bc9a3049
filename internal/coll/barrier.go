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
// base.. of st, whose episode the caller has claimed. The flat barrier runs it
// over the whole team, the hierarchy-aware barriers of internal/core over the
// node leaders.
func SubgroupDissemination(st *State, base int, group []int, myIdx int) {
	g := len(group)
	for k := 0; 1<<k < g; k++ {
		st.Notify(group[(myIdx+1<<k)%g], base+k, pgas.ViaConduit)
		st.Arrivals(base+k, 1)
	}
}

// SubgroupLinear is the centralized linear barrier among a subgroup (same
// arguments as SubgroupDissemination): 2(g−1) notifications, all serialized
// through the group's first member. Slot base counts arrivals at it; slot
// base+1 carries its release stamp.
func SubgroupLinear(st *State, base int, group []int, myIdx int) {
	g := len(group)
	if g == 1 {
		return
	}
	if myIdx == 0 {
		st.Arrivals(base, g-1)
		for _, r := range group[1:] {
			st.Stamp(r, base+1, pgas.ViaConduit)
		}
		return
	}
	st.Notify(group[0], base, pgas.ViaConduit)
	st.Arrivals(base+1, 1)
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
	st.Next()
	SubgroupDissemination(st, 0, v.T.Ranks(), v.Rank)
}

// BarrierLinear is the centralized linear barrier the paper contrasts with
// dissemination, over the whole team.
func BarrierLinear(v *team.View) {
	v.Img.World().Stats().Count(trace.OpBarrier)
	if v.NumImages() == 1 {
		return
	}
	st := GetState(v, Alg{"bar.lin"}, 2)
	st.Next()
	SubgroupLinear(st, 0, v.T.Ranks(), v.Rank)
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
	st.Next()
	r := v.Rank
	nkids := binomialFanout(r, n)
	if nkids > 0 {
		st.Arrivals(0, nkids)
	}
	if r != 0 {
		st.Notify(r-(r&-r), 0, pgas.ViaConduit)
		st.Arrivals(1, 1)
	}
	for k := range nkids {
		st.Stamp(r+1<<k, 1, pgas.ViaConduit)
	}
}

// binomialFanout returns how many children rank r has in a binomial tree of n
// ranks rooted at 0: r + 2^k for each k below the position of r's lowest set
// bit (all k for the root), bounded by n. They sit on edges 0..fanout−1, the
// edge-k child at distance 2^k; a child r's edge is the position of its lowest
// set bit.
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
	st.Next()
	r := v.Rank
	lost := -1
	for k := 0; 1<<k < n; k++ {
		if r%(1<<(k+1)) != 0 {
			// Loser: report to the winner and stop advancing.
			st.Notify(r-1<<k, k, pgas.ViaConduit)
			lost = k
			break
		}
		if r+1<<k < n {
			st.Arrivals(k, 1)
		}
	}
	if lost >= 0 {
		st.Arrivals(nr+lost, 1)
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
				st.Stamp(partner, nr+k, pgas.ViaConduit)
			}
		}
	}
}

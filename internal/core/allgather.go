package core

import (
	"fmt"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// AllgatherTwoLevel gathers every member's mine vector into out on every
// member (ordered by team rank) with the two-level methodology: intranode
// sets gather at their node leader over shared memory, the leaders run an
// allgather of whole node blocks over the network — Bruck's concatenation
// algorithm, ceil(log2 nodes) rounds (coll.SubgroupAllgatherBruck) — and each
// leader fans the assembled vector out to its intranode set over shared
// memory.
//
// Flag layout: slot 0 intranode arrivals at the leader, slot 1 the leader's
// release, slots 2.. the leaders' rounds.
func AllgatherTwoLevel[T any](v *team.View, mine, out []T) {
	t := v.T
	sz := t.Size()
	n := len(mine)
	if len(out) < sz*n {
		panic(fmt.Sprintf("core: allgather out %d < %d", len(out), sz*n))
	}
	v.Img.World().Stats().Count(trace.OpReduce)
	copy(out[v.Rank*n:], mine)
	if sz == 1 {
		return
	}
	st := coll.GetState(v, coll.Alg{"ag2", pgas.TypeName[T]()}, 2+coll.Rounds(t.NumNodeGroups()))
	ep := st.Next()
	// The full gathered vector on every image, one region per team rank: the
	// leader's assembly area and the members' fan-out landing.
	vec := coll.NewBox[T](st, "", n, sz)
	me := v.Img
	if leader := t.LeaderOf(v.Rank); v.Rank != leader {
		// Contribute to the leader's assembled area at my rank's region.
		vec.Put(leader, v.Rank, mine, 0, pgas.ViaShm)
		me.WaitFlagGE(st.Flags, me.Rank(), 1, ep)
	} else {
		allgatherTwoLevelLead(v, st, vec, mine, ep)
	}
	// Copy the gathered vector, one region per rank, out into out.
	all, c := vec.Region(0), vec.Cap()
	for r := 0; r < sz; r++ {
		copy(out[r*n:r*n+n], all[r*c:])
	}
	me.MemWork(pgas.ElemSize[T]() * n * sz)
}

// allgatherTwoLevelLead is a node leader's part of AllgatherTwoLevel: collect
// the node block, exchange node blocks with the other leaders, fan the
// assembled vector out. A function of its own for the reason scanTwoLevelLead
// is: the members carry none of its frame.
//
//go:noinline
func allgatherTwoLevelLead[T any](v *team.View, st *coll.State, vec coll.Box[T], mine []T, ep int64) {
	t, me := v.T, v.Img
	n := len(mine)
	leaders := t.Leaders()
	all, c := vec.Region(0), vec.Cap()
	copy(all[v.Rank*c:], mine)
	group := t.NodeGroup(t.GroupOf(v.Rank))
	if len(group) > 1 {
		me.WaitFlagGE(st.Flags, me.Rank(), 0, ep*int64(len(group)-1))
	}
	// Allgather of node blocks among the leaders; they land in a box of their
	// own.
	if steps := len(leaders) - 1; steps > 0 {
		mg := t.MaxNodeGroup()
		coll.SubgroupAllgatherBruck(v, st, 2, coll.NewBox[T](st, "blocks", n, steps*mg), leaders, t.LeaderPos(v.Rank),
			t.NodeGroup, mg, all, c, n, ep)
	}
	// Fan out the assembled vector to the intranode set.
	for _, r := range group {
		if r != v.Rank {
			vec.Put(r, 0, all, 1, pgas.ViaShm)
		}
	}
}

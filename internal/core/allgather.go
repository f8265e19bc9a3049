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
// algorithm (ceil(log2 nodes) rounds) from logDepthLeaders node leaders up,
// the (nodes−1)-step ring below it — and each leader fans the assembled
// vector out to its intranode set over shared memory.
//
// Flag layout: slot 0 intranode arrivals at the leader, slot 1 the leader's
// release, slots 2.. the leaders' ring steps or Bruck rounds.
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
	nLeaders := t.NumNodeGroups()
	logDepth := nLeaders >= logDepthLeaders
	slots := 2 + nLeaders - 1
	if logDepth {
		slots = 2 + coll.Rounds(nLeaders)
	}
	st := coll.GetState(v, coll.Alg{"ag2", pgas.TypeName[T]()}, slots)
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
		allgatherTwoLevelLead(v, st, vec, mine, ep, logDepth)
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
func allgatherTwoLevelLead[T any](v *team.View, st *coll.State, vec coll.Box[T], mine []T, ep int64, logDepth bool) {
	t, me := v.T, v.Img
	n := len(mine)
	es := pgas.ElemSize[T]()
	leaders := t.Leaders()
	nLeaders := len(leaders)
	all, c := vec.Region(0), vec.Cap()
	copy(all[v.Rank*c:], mine)
	group := t.NodeGroup(t.GroupOf(v.Rank))
	if len(group) > 1 {
		me.WaitFlagGE(st.Flags, me.Rank(), 0, ep*int64(len(group)-1))
	}
	// Allgather of node blocks among the leaders. A message is a run of whole
	// node blocks, consecutive (cyclically) in leader order and packed member
	// after member; blocks moves count of them, from leader position first on,
	// between the assembled vector and such a run, and returns the run's length.
	// They land in a box of their own, as many regions as the largest node
	// block for every block but the leader's own.
	if steps := nLeaders - 1; steps > 0 {
		mg := t.MaxNodeGroup()
		ring := coll.NewBox[T](st, "ring", n, steps*mg)
		myPos := t.LeaderPos(v.Rank)
		blocks := func(run []T, first, count int, unpack bool) int {
			at := 0
			for i := 0; i < count; i++ {
				for _, r := range t.NodeGroup((first + i) % nLeaders) {
					if unpack {
						copy(all[r*c:], run[at:at+n])
					} else {
						copy(run[at:], all[r*c:r*c+n])
					}
					at += n
				}
			}
			me.MemWork(es * at)
			return at
		}
		if logDepth {
			// Bruck over node blocks: in round k a leader ships the 2^k blocks
			// it has assembled so far (cyclically, from its own on) to the
			// leader 2^k positions below it. Round k lands at most 2^k blocks:
			// the rounds lie back to back from region (2^k−1)·mg on, and the
			// last one ends steps·mg regions in. One staging buffer serves
			// every round (a put captures its payload at issue); no round
			// ships more than half the blocks.
			staging := coll.Temp[T](st, "pack", nLeaders/2*mg*n)
			for k, have := 0, 1; have < nLeaders; k++ {
				count := min(have, nLeaders-have) // the receiver needs no more
				at := (1<<k - 1) * mg
				dst := leaders[(myPos-1<<k+nLeaders)%nLeaders]
				ring.Put(dst, at, staging[:blocks(staging, myPos, count, false)], 2+k, pgas.ViaConduit)
				me.WaitFlagGE(st.Flags, me.Rank(), 2+k, ep)
				blocks(ring.Region(at), myPos+1<<k, count, true)
				have += count
			}
		} else {
			// Ring: each step forwards one whole node block to the next leader.
			next := leaders[(myPos+1)%nLeaders]
			staging := coll.Temp[T](st, "pack", mg*n)
			for s := 0; s < steps; s++ {
				sendPos := ((myPos-s)%nLeaders + nLeaders) % nLeaders
				ring.Put(next, s*mg, staging[:blocks(staging, sendPos, 1, false)], 2+s, pgas.ViaConduit)
				me.WaitFlagGE(st.Flags, me.Rank(), 2+s, ep)
				blocks(ring.Region(s*mg), sendPos+nLeaders-1, 1, true)
			}
		}
	}
	// Fan out the assembled vector to the intranode set.
	for _, r := range group {
		if r != v.Rank {
			vec.Put(r, 0, all, 1, pgas.ViaShm)
		}
	}
}

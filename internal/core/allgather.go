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
// sets gather at their node leader over shared memory, the leaders run a
// ring allgather of whole node-blocks over the network, and each leader
// fans the assembled vector out to its intranode set over shared memory.
//
// Flag layout: slot 0 intranode arrivals at the leader, slot 1 the leader's
// release, slots 2.. the leaders' ring steps.
func AllgatherTwoLevel[T any](v *team.View, mine, out []T) {
	t := v.T
	sz := t.Size()
	n := len(mine)
	es := pgas.ElemSize[T]()
	if len(out) < sz*n {
		panic(fmt.Sprintf("core: allgather out %d < %d", len(out), sz*n))
	}
	v.Img.World().Stats().Count(trace.OpReduce)
	copy(out[v.Rank*n:], mine)
	if sz == 1 {
		return
	}
	leaders := t.Leaders()
	nLeaders := len(leaders)
	steps := nLeaders - 1
	st := coll.GetState(v, coll.Alg{"ag2", pgas.TypeName[T]()}, 2+steps)
	ep := st.Next()

	// Two boxes: the full gathered vector on every image (the leader's
	// assembly area and the members' fan-out landing, one region per team
	// rank), and a leader's ring-step areas, each as many regions as the
	// largest node block.
	vec := coll.NewBox[T](st, "", n, sz)
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	// unpack copies the gathered vector, one region per rank, out into out.
	unpack := func() {
		all, c := vec.Region(0), vec.Cap()
		for r := 0; r < sz; r++ {
			copy(out[r*n:r*n+n], all[r*c:])
		}
		me.MemWork(es * n * sz)
	}

	if v.Rank != leader {
		// Contribute to the leader's assembled area at my rank's region.
		vec.Put(leader, v.Rank, mine, 0, pgas.ViaShm)
		me.WaitFlagGE(st.Flags, me.Rank(), 1, ep)
		unpack()
		return
	}
	// Leader: collect the node block.
	all, c := vec.Region(0), vec.Cap()
	copy(all[v.Rank*c:], mine)
	group := t.NodeGroup(t.GroupOf(v.Rank))
	if len(group) > 1 {
		me.WaitFlagGE(st.Flags, me.Rank(), 0, ep*int64(len(group)-1))
	}
	// Ring allgather of node blocks among leaders. Each step forwards one
	// whole node block (packed rank-slot layout).
	if steps > 0 {
		mg := t.MaxNodeGroup()
		ring := coll.NewBox[T](st, "ring", n, steps*mg)
		myPos := t.LeaderPos(v.Rank)
		next := leaders[(myPos+1)%nLeaders]
		// One staging buffer serves every step: a put captures its payload
		// at issue.
		staging := coll.Temp[T](st, "pack", mg*n)
		for s := 0; s < steps; s++ {
			sendPos := ((myPos-s)%nLeaders + nLeaders) % nLeaders
			recvPos := ((myPos-s-1)%nLeaders + nLeaders) % nLeaders
			sendGroup := t.NodeGroup(sendPos)
			// Pack the block: contiguous per-member slices.
			pack := staging[:len(sendGroup)*n]
			for i, r := range sendGroup {
				copy(pack[i*n:], all[r*c:r*c+n])
			}
			me.MemWork(es * len(pack))
			ring.Put(next, s*mg, pack, 2+s, pgas.ViaConduit)
			me.WaitFlagGE(st.Flags, me.Rank(), 2+s, ep)
			recvGroup := t.NodeGroup(recvPos)
			landed := ring.Region(s * mg)
			for i, r := range recvGroup {
				copy(all[r*c:], landed[i*n:i*n+n])
			}
			me.MemWork(es * len(recvGroup) * n)
		}
	}
	// Fan out the assembled vector to the intranode set.
	for _, r := range group {
		if r != v.Rank {
			vec.Put(r, 0, all, 1, pgas.ViaShm)
		}
	}
	unpack()
}

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
	nLeaders := len(t.Leaders())
	steps := nLeaders - 1
	st := coll.GetState(v, coll.Alg{"ag2", pgas.TypeName[T]()}, 2+steps)
	ep := st.Next()
	parity := int(ep % 2)

	// Two boxes, per parity: the full gathered vector on every image (the
	// leader's assembly area and the members' fan-out landing, one cap-sized
	// slot per team rank), and a leader's ring-step regions, each sized to
	// the largest node block.
	co, cap_ := coll.Scratch[T](st, "", n, 2*sz)
	full := cap_ * sz
	base := parity * full
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	gi := t.GroupOf(v.Rank)
	group := t.NodeGroup(gi)

	if v.Rank != leader {
		// Contribute to the leader's assembled area at my rank's slot.
		pgas.PutThenNotify(me, co, t.GlobalRank(leader), base+v.Rank*cap_, mine, st.Flags, 0, 1, pgas.ViaShm)
		me.WaitFlagGE(st.Flags, me.Rank(), 1, ep)
		local := pgas.Local(co, me)
		for r := 0; r < sz; r++ {
			copy(out[r*n:r*n+n], local[base+r*cap_:base+r*cap_+n])
		}
		me.MemWork(es * n * sz)
		return
	}
	// Leader: collect the node block.
	local := pgas.Local(co, me)
	copy(local[base+v.Rank*cap_:base+v.Rank*cap_+n], mine)
	if len(group) > 1 {
		me.WaitFlagGE(st.Flags, me.Rank(), 0, ep*int64(len(group)-1))
	}
	// Ring allgather of node blocks among leaders. Each step forwards one
	// whole node block (packed rank-slot layout).
	leaders := t.Leaders()
	myPos := t.LeaderPos(v.Rank)
	if steps > 0 {
		stepRegion := cap_ * t.MaxNodeGroup()
		ring, _ := coll.Scratch[T](st, "ring", n, 2*steps*t.MaxNodeGroup())
		ringBase := parity * steps * stepRegion
		nextPos := (myPos + 1) % nLeaders
		next := t.GlobalRank(leaders[nextPos])
		// One staging buffer serves every step: a put captures its payload
		// at issue.
		staging := coll.Temp[T](st, "pack", t.MaxNodeGroup()*n)
		for s := 0; s < steps; s++ {
			sendPos := ((myPos-s)%nLeaders + nLeaders) % nLeaders
			recvPos := ((myPos-s-1)%nLeaders + nLeaders) % nLeaders
			sendGroup := t.NodeGroup(sendPos)
			reg := ringBase + s*stepRegion
			// Pack the block: contiguous per-member slices.
			pack := staging[:len(sendGroup)*n]
			for i, r := range sendGroup {
				copy(pack[i*n:], local[base+r*cap_:base+r*cap_+n])
			}
			me.MemWork(es * len(pack))
			pgas.PutThenNotify(me, ring, next, reg, pack, st.Flags, 2+s, 1, pgas.ViaConduit)
			me.WaitFlagGE(st.Flags, me.Rank(), 2+s, ep)
			recvGroup := t.NodeGroup(recvPos)
			landed := pgas.Local(ring, me)[reg:]
			for i, r := range recvGroup {
				copy(local[base+r*cap_:base+r*cap_+n], landed[i*n:i*n+n])
			}
			me.MemWork(es * len(recvGroup) * n)
		}
	}
	// Fan out the assembled vector to the intranode set.
	for _, r := range group {
		if r == v.Rank {
			continue
		}
		pgas.PutThenNotify(me, co, t.GlobalRank(r), base, local[base:base+full], st.Flags, 1, 1, pgas.ViaShm)
	}
	for r := 0; r < sz; r++ {
		copy(out[r*n:r*n+n], local[base+r*cap_:base+r*cap_+n])
	}
	me.MemWork(es * n * sz)
}

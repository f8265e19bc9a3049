package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// AllreduceTwoLevel is the memory-hierarchy-aware all-to-all reduction
// (paper §IV applied to co_sum/co_max/co_min):
//
//	Step 1: each intranode set ships its vectors to the node leader over
//	        shared memory; the leader combines them;
//	Step 2: the node leaders run a recursive-doubling all-reduce among
//	        themselves over the network;
//	Step 3: each leader ships the result back to its intranode set over
//	        shared memory.
//
// buf is combined in place on every image.
func AllreduceTwoLevel[T any](v *team.View, buf []T, op coll.Op[T]) {
	t := v.T
	v.Img.World().Stats().Count(trace.OpReduce)
	if t.Size() == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	// Flag layout: slot 0 counts intranode arrivals at the leader, slot 1
	// carries the leader's result release.
	st := coll.GetState(v, coll.Alg{"red2", op.Name, pgas.TypeName[T]()}, 2)
	ep := st.Next()
	// Two boxes, per parity: a leader's inbox (one region per position in
	// its intranode set) and a member's result landing region.
	inbox, icap := coll.Scratch[T](st, "in", n, 2*t.MaxNodeGroup())
	res, rcap := coll.Scratch[T](st, "res", n, 2)
	parity := int(ep % 2)
	region := func(k int) int { return (parity*t.MaxNodeGroup() + k) * icap }
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	group := t.NodeGroup(t.GroupOf(v.Rank))
	resultRegion := parity * rcap

	if v.Rank != leader {
		// Step 1 (slave): contribute my vector to the leader's inbox
		// slot (my position within the intranode set), then collect the
		// result in step 3.
		pgas.PutThenNotify(me, inbox, t.GlobalRank(leader), region(groupPos(group, v.Rank)), buf, st.Flags, 0, 1, pgas.ViaShm)
		me.WaitFlagGE(st.Flags, me.Rank(), 1, ep)
		copy(buf, pgas.Local(res, me)[resultRegion:resultRegion+n])
		me.MemWork(es * n)
		return
	}
	// Step 1 (leader): combine the intranode set's vectors.
	if len(group) > 1 {
		me.WaitFlagGE(st.Flags, me.Rank(), 0, ep*int64(len(group)-1))
		local := pgas.Local(inbox, me)
		for i, r := range group {
			if r == v.Rank {
				continue
			}
			off := region(i)
			op.Combine(buf, local[off:off+n])
			me.MemWork(2 * es * n)
		}
	}
	// Step 2: recursive doubling among leaders over the conduit.
	leaders := t.Leaders()
	coll.SubgroupAllreduceRD(v, leaders, t.LeaderPos(v.Rank), buf, op, coll.Alg{"core.red2lead", op.Name})
	// Step 3: release the result to the intranode set.
	for _, r := range group {
		if r == v.Rank {
			continue
		}
		pgas.PutThenNotify(me, res, t.GlobalRank(r), resultRegion, buf, st.Flags, 1, 1, pgas.ViaShm)
	}
}

// BcastTwoLevel is the memory-hierarchy-aware one-to-all broadcast: the
// source forwards to its node leader (shared memory), the node leaders run
// a binomial broadcast over the network, and each leader fans out to its
// intranode set over shared memory. root is a team rank.
func BcastTwoLevel[T any](v *team.View, root int, buf []T) {
	t := v.T
	v.Img.World().Stats().Count(trace.OpBroadcast)
	if t.Size() == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	// Flag layout: slot 0 handoff arrivals at the root's leader, slot 1
	// fan-out arrivals at members, slots 3/4 parity fan-out acks at leaders,
	// slots 5/6 parity handoff credits at the root. Roles vary with the root,
	// so every wait counts exactly (State.Expect).
	st := coll.GetState(v, coll.Alg{"bc2", pgas.TypeName[T]()}, 7)
	ep := st.Next()
	expect := st.Expect()
	// One landing region per parity on every image: the root's leader lands
	// the handoff in it, everyone else the fan-out.
	co, cap_ := coll.Scratch[T](st, "", n, 2)
	parity := int(ep % 2)
	dataRegion := parity * cap_
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	group := t.NodeGroup(t.GroupOf(v.Rank))
	rootLeader := t.LeaderOf(root)
	ackSlot := 3 + parity
	// Step 0: a non-leader source hands the payload to its node leader.
	// The handoff is the one edge with no downstream wait on the root's
	// critical path, so it carries its own credit: the root may not reuse
	// a parity landing region before the leader acked consuming the
	// previous same-parity handoff (slots 5/6).
	if v.Rank == root && root != rootLeader {
		expect[5+parity]++
		if sends := expect[5+parity]; sends > 1 {
			me.WaitFlagGE(st.Flags, me.Rank(), 5+parity, sends-1)
		}
		pgas.PutThenNotify(me, co, t.GlobalRank(rootLeader), dataRegion, buf, st.Flags, 0, 1, pgas.ViaShm)
	}
	if v.Rank == rootLeader && root != rootLeader {
		expect[0]++
		me.WaitFlagGE(st.Flags, me.Rank(), 0, expect[0])
		copy(buf, pgas.Local(co, me)[dataRegion:dataRegion+n])
		me.MemWork(es * n)
		me.NotifyAdd(st.Flags, t.GlobalRank(root), 5+parity, 1, pgas.ViaShm)
	}
	// Step 1: binomial broadcast among node leaders (internally
	// flow-controlled).
	if v.Rank == leader {
		leaders := t.Leaders()
		coll.SubgroupBcastBinomial(v, leaders, t.LeaderPos(v.Rank), t.LeaderPos(rootLeader), buf, coll.Alg{"core.bc2lead"})
		// Fan-out flow control: the intranode set must have consumed the
		// same-parity fan-out from two episodes ago before its landing
		// region is overwritten.
		if gate := expect[ackSlot]; gate > 0 {
			me.WaitFlagGE(st.Flags, me.Rank(), ackSlot, gate)
		}
		// Step 2: fan out to the intranode set over shared memory.
		targets := 0
		for _, r := range group {
			if r == v.Rank || r == root {
				continue
			}
			pgas.PutThenNotify(me, co, t.GlobalRank(r), dataRegion, buf, st.Flags, 1, 1, pgas.ViaShm)
			targets++
		}
		expect[ackSlot] += int64(targets)
		return
	}
	if v.Rank == root {
		return // the source already has the data
	}
	expect[1]++
	me.WaitFlagGE(st.Flags, me.Rank(), 1, expect[1])
	copy(buf, pgas.Local(co, me)[dataRegion:dataRegion+n])
	me.MemWork(es * n)
	me.NotifyAdd(st.Flags, t.GlobalRank(leader), ackSlot, 1, pgas.ViaShm)
}

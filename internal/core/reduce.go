package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// allreduceLeveled is the memory-hierarchy-aware all-to-all reduction (paper
// §IV applied to co_sum/co_max/co_min, for any number of shared-memory
// levels), the walk of barrierLeveled with vectors on it:
//
//	up:   at each level the image ships its vector to the level's leader over
//	      shared memory and awaits the result; only the leader — having
//	      combined its whole group's vectors — climbs on;
//	top:  the node leaders run a recursive-doubling all-reduce among
//	      themselves over the network (state name leadName);
//	down: each leader ships the result to the groups it leads over shared
//	      memory, outermost first.
//
// buf is combined in place on every image. Flag layout: level d has slot 2d
// for arrivals at its leader and slot 2d+1 for the leader's result release.
func allreduceLeveled[T any](v *team.View, buf []T, op coll.Op[T], name, leadName string, sockets bool) {
	t := v.T
	v.Img.World().Stats().Count(trace.OpReduce)
	if t.Size() == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	var lbuf [2]level
	levels := levelsOf(t, v.Rank, sockets, &lbuf)
	st := coll.GetState(v, coll.Alg{name, op.Name, pgas.TypeName[T]()}, 2*len(levels))
	ep := st.Next()
	// Two boxes, per parity: a leader's inbox and the result landing region
	// of everyone the result cascades down to. The inbox has a range of
	// regions per level, as wide as the level's largest group, one region per
	// position in the group. The ranges must not overlap: at a node leader
	// both its own socket's members and the other socket leaders deposit
	// concurrently.
	widths := levelWidths(t, sockets)
	regions := widths[0] + widths[1]
	inbox, icap := coll.Scratch[T](st, "in", n, 2*regions)
	res, rcap := coll.Scratch[T](st, "res", n, 2)
	parity := int(ep % 2)
	resultRegion := parity * rcap
	me := v.Img

	d, first := 0, parity*regions // first: the level's range of inbox regions
	for ; d < len(levels); d++ {
		lv := levels[d]
		if v.Rank != lv.leader {
			off := (first + groupPos(lv.group, v.Rank)) * icap
			pgas.PutThenNotify(me, inbox, t.GlobalRank(lv.leader), off, buf, st.Flags, 2*d, 1, pgas.ViaShm)
			me.WaitFlagGE(st.Flags, me.Rank(), 2*d+1, ep)
			copy(buf, pgas.Local(res, me)[resultRegion:resultRegion+n])
			me.MemWork(es * n)
			break
		}
		if len(lv.group) > 1 {
			me.WaitFlagGE(st.Flags, me.Rank(), 2*d, ep*int64(len(lv.group)-1))
			local := pgas.Local(inbox, me)
			for i, r := range lv.group {
				if r == v.Rank {
					continue
				}
				off := (first + i) * icap
				op.Combine(buf, local[off:off+n])
				me.MemWork(2 * es * n)
			}
		}
		first += widths[d]
	}
	if d == len(levels) {
		coll.SubgroupAllreduceRD(v, t.Leaders(), t.LeaderPos(v.Rank), buf, op, coll.Alg{leadName, op.Name})
	}
	// d is the first level the image does not lead: it releases those below.
	for d--; d >= 0; d-- {
		for _, r := range levels[d].group {
			if r != v.Rank {
				pgas.PutThenNotify(me, res, t.GlobalRank(r), resultRegion, buf, st.Flags, 2*d+1, 1, pgas.ViaShm)
			}
		}
	}
}

// AllreduceTwoLevel is the paper's two-level all-to-all reduction: intranode
// sets combine at their node leader, the leaders reduce over the network.
func AllreduceTwoLevel[T any](v *team.View, buf []T, op coll.Op[T]) {
	allreduceLeveled(v, buf, op, "red2", "core.red2lead", false)
}

// AllreduceThreeLevel is the socket-aware all-to-all reduction (the
// multi-level generalization of the paper's future-work section): cores
// combine at their socket leader, socket leaders at the node leader.
func AllreduceThreeLevel[T any](v *team.View, buf []T, op coll.Op[T]) {
	allreduceLeveled(v, buf, op, "red3", "core.red3lead", true)
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
	// so every wait counts exactly (State.Arrivals).
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
		st.Credit(5 + parity)
		pgas.PutThenNotify(me, co, t.GlobalRank(rootLeader), dataRegion, buf, st.Flags, 0, 1, pgas.ViaShm)
	}
	if v.Rank == rootLeader && root != rootLeader {
		st.Arrivals(0, 1)
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
	st.Arrivals(1, 1)
	copy(buf, pgas.Local(co, me)[dataRegion:dataRegion+n])
	me.MemWork(es * n)
	me.NotifyAdd(st.Flags, t.GlobalRank(leader), ackSlot, 1, pgas.ViaShm)
}

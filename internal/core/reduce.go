package core

import (
	"fmt"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// redState carries the two-level reduction plumbing for one (team, op)
// pair: flags and per-member counters (the scratch boxes come from
// coll.Scratch, one per role). Flag layout: slot 0 counts intranode arrivals
// at the leader, slot 1 carries the leader's result release.
type redState struct {
	flags *pgas.Flags
	ep    []int64
	// expect0/expect1 are per-member local expectations for flag slots 0
	// and 1. They can lag the episode number when a member's role varies
	// between episodes (e.g. the broadcast root changes), so each member
	// tracks exactly how many notifications it should have received.
	expect0 []int64
	expect1 []int64
	// ackExpect[p][r] is leader r's cumulative expected member-ack count
	// on the parity-p ack slot (fan-out flow control in BcastTwoLevel).
	ackExpect [2][]int64
	// sendExpect[p][r] counts the same-parity root->leader handoff puts
	// image r has issued (BcastTwoLevel's handoff flow control: a root
	// gates send s on the leader's consumption ack for send s-1).
	sendExpect [2][]int64
}

func getRedState(v *team.View, alg string) *redState {
	return v.Memo(team.MemoKey{Kind: "core:red", Alg: alg}, func() interface{} {
		return newRedState(v, alg)
	}).(*redState)
}

func newRedState(v *team.View, alg string) *redState {
	w := v.Img.World()
	key := fmt.Sprintf("core:%s:team%d", alg, v.T.ID())
	return pgas.LookupOrCreate(w, key, func() interface{} {
		s := &redState{
			flags:   pgas.NewFlags(w, key, 7),
			ep:      make([]int64, v.T.Size()),
			expect0: make([]int64, v.T.Size()),
			expect1: make([]int64, v.T.Size()),
		}
		s.ackExpect[0] = make([]int64, v.T.Size())
		s.ackExpect[1] = make([]int64, v.T.Size())
		s.sendExpect[0] = make([]int64, v.T.Size())
		s.sendExpect[1] = make([]int64, v.T.Size())
		return s
	}).(*redState)
}

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
	alg := "red2." + op.Name + "." + pgas.TypeName[T]()
	st := getRedState(v, alg)
	st.ep[v.Rank]++
	ep := st.ep[v.Rank]
	// Two boxes, per parity: a leader's inbox (one region per position in
	// its intranode set) and a member's result landing region.
	inbox, icap := coll.Scratch[T](v, alg, "in", n, 2*t.MaxNodeGroup())
	res, rcap := coll.Scratch[T](v, alg, "res", n, 2)
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
		slot := -1
		for i, r := range group {
			if r == v.Rank {
				slot = i
			}
		}
		pgas.PutThenNotify(me, inbox, t.GlobalRank(leader), region(slot), buf, st.flags, 0, 1, pgas.ViaShm)
		me.WaitFlagGE(st.flags, me.Rank(), 1, ep)
		copy(buf, pgas.Local(res, me)[resultRegion:resultRegion+n])
		me.MemWork(es * n)
		return
	}
	// Step 1 (leader): combine the intranode set's vectors.
	if len(group) > 1 {
		me.WaitFlagGE(st.flags, me.Rank(), 0, ep*int64(len(group)-1))
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
	coll.SubgroupAllreduceRD(v, leaders, t.LeaderPos(v.Rank), buf, op, "core.red2lead."+op.Name, pgas.ViaConduit)
	// Step 3: release the result to the intranode set.
	for _, r := range group {
		if r == v.Rank {
			continue
		}
		pgas.PutThenNotify(me, res, t.GlobalRank(r), resultRegion, buf, st.flags, 1, 1, pgas.ViaShm)
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
	alg := "bc2." + pgas.TypeName[T]()
	st := getRedState(v, alg)
	st.ep[v.Rank]++
	ep := st.ep[v.Rank]
	// One landing region per parity on every image: the root's leader lands
	// the handoff in it, everyone else the fan-out.
	co, cap_ := coll.Scratch[T](v, alg, "", n, 2)
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
		st.sendExpect[parity][v.Rank]++
		if sends := st.sendExpect[parity][v.Rank]; sends > 1 {
			me.WaitFlagGE(st.flags, me.Rank(), 5+parity, sends-1)
		}
		pgas.PutThenNotify(me, co, t.GlobalRank(rootLeader), dataRegion, buf, st.flags, 0, 1, pgas.ViaShm)
	}
	if v.Rank == rootLeader && root != rootLeader {
		st.expect0[v.Rank]++
		me.WaitFlagGE(st.flags, me.Rank(), 0, st.expect0[v.Rank])
		copy(buf, pgas.Local(co, me)[dataRegion:dataRegion+n])
		me.MemWork(es * n)
		me.NotifyAdd(st.flags, t.GlobalRank(root), 5+parity, 1, pgas.ViaShm)
	}
	// Step 1: binomial broadcast among node leaders (internally
	// flow-controlled).
	if v.Rank == leader {
		leaders := t.Leaders()
		coll.SubgroupBcastBinomial(v, leaders, t.LeaderPos(v.Rank), t.LeaderPos(rootLeader), buf, "core.bc2lead", pgas.ViaConduit)
		// Fan-out flow control: the intranode set must have consumed the
		// same-parity fan-out from two episodes ago before its landing
		// region is overwritten.
		gate := st.ackExpect[parity][v.Rank]
		if gate > 0 {
			me.WaitFlagGE(st.flags, me.Rank(), ackSlot, gate)
		}
		// Step 2: fan out to the intranode set over shared memory.
		targets := 0
		for _, r := range group {
			if r == v.Rank || r == root {
				continue
			}
			pgas.PutThenNotify(me, co, t.GlobalRank(r), dataRegion, buf, st.flags, 1, 1, pgas.ViaShm)
			targets++
		}
		st.ackExpect[parity][v.Rank] += int64(targets)
		return
	}
	if v.Rank == root {
		return // the source already has the data
	}
	st.expect1[v.Rank]++
	me.WaitFlagGE(st.flags, me.Rank(), 1, st.expect1[v.Rank])
	copy(buf, pgas.Local(co, me)[dataRegion:dataRegion+n])
	me.MemWork(es * n)
	me.NotifyAdd(st.flags, t.GlobalRank(leader), ackSlot, 1, pgas.ViaShm)
}

package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// AllreduceThreeLevel is the socket-aware all-to-all reduction (the
// multi-level generalization of the paper's future-work section):
//
//	Step 1: cores ship vectors to their *socket* leader (cheapest coherence
//	        domain); the socket leader combines;
//	Step 2: socket leaders ship partials to the *node* leader; it combines;
//	Step 3: node leaders run recursive doubling over the network;
//	Steps 4-5: results cascade back down node -> socket -> core.
//
// Flag layout: slot 0 socket arrivals, slot 1 socket release, slot 2 node
// arrivals, slot 3 node release.
func AllreduceThreeLevel[T any](v *team.View, buf []T, op coll.Op[T]) {
	t := v.T
	v.Img.World().Stats().Count(trace.OpReduce)
	if t.Size() == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	st := coll.GetState(v, coll.Alg{"red3", op.Name, pgas.TypeName[T]()}, 4)
	ep := st.Next()
	// Two boxes, per parity: a socket or node leader's inbox, and the result
	// landing region of everyone the result cascades down to.
	regions, leaderBase := red3Layout(v)
	inbox, icap := coll.Scratch[T](st, "in", n, 2*regions)
	res, rcap := coll.Scratch[T](st, "res", n, 2)
	parity := int(ep % 2)
	region := func(k int) int { return (parity*regions + k) * icap }
	resultRegion := parity * rcap
	me := v.Img

	gi := t.GroupOf(v.Rank)
	nodeLeader := t.LeaderOf(v.Rank)
	sgroups := t.SocketGroups(gi)
	sleaders := t.SocketLeaders(gi)
	mySocketGroup, mySocketLeader := socketOf(sgroups, sleaders, v.Rank)

	if v.Rank != mySocketLeader {
		// Step 1 (core): contribute to the socket leader, await result.
		slot := groupPos(mySocketGroup, v.Rank)
		pgas.PutThenNotify(me, inbox, t.GlobalRank(mySocketLeader), region(slot), buf, st.Flags, 0, 1, pgas.ViaShm)
		me.WaitFlagGE(st.Flags, me.Rank(), 1, ep)
		copy(buf, pgas.Local(res, me)[resultRegion:resultRegion+n])
		me.MemWork(es * n)
		return
	}
	// Socket leader: combine the socket group's vectors.
	if len(mySocketGroup) > 1 {
		me.WaitFlagGE(st.Flags, me.Rank(), 0, ep*int64(len(mySocketGroup)-1))
		local := pgas.Local(inbox, me)
		for i, r := range mySocketGroup {
			if r == v.Rank {
				continue
			}
			off := region(i)
			op.Combine(buf, local[off:off+n])
			me.MemWork(2 * es * n)
		}
	}
	if v.Rank != nodeLeader {
		// Step 2 (socket leader): contribute to the node leader, await
		// result, then release the socket. Socket leaders land in their
		// own region range (leaderBase..) — a socket-group member of the
		// node leader's socket writes the low regions concurrently.
		slot := leaderBase + groupPos(sleaders, v.Rank)
		pgas.PutThenNotify(me, inbox, t.GlobalRank(nodeLeader), region(slot), buf, st.Flags, 2, 1, pgas.ViaShm)
		me.WaitFlagGE(st.Flags, me.Rank(), 3, ep)
		copy(buf, pgas.Local(res, me)[resultRegion:resultRegion+n])
		me.MemWork(es * n)
	} else {
		// Node leader: combine the other socket leaders' partials.
		if len(sleaders) > 1 {
			me.WaitFlagGE(st.Flags, me.Rank(), 2, ep*int64(len(sleaders)-1))
			local := pgas.Local(inbox, me)
			for i, r := range sleaders {
				if r == v.Rank {
					continue
				}
				off := region(leaderBase + i)
				op.Combine(buf, local[off:off+n])
				me.MemWork(2 * es * n)
			}
		}
		// Step 3: network recursive doubling among node leaders.
		coll.SubgroupAllreduceRD(v, t.Leaders(), t.LeaderPos(v.Rank), buf, op, coll.Alg{"core.red3lead", op.Name})
		// Step 4: release the other socket leaders.
		for _, sl := range sleaders {
			if sl == v.Rank {
				continue
			}
			pgas.PutThenNotify(me, res, t.GlobalRank(sl), resultRegion, buf, st.Flags, 3, 1, pgas.ViaShm)
		}
	}
	// Step 5: release my socket group.
	for _, r := range mySocketGroup {
		if r == v.Rank {
			continue
		}
		pgas.PutThenNotify(me, res, t.GlobalRank(r), resultRegion, buf, st.Flags, 1, 1, pgas.ViaShm)
	}
}

// red3Layout sizes the 3-level inbox: regions for the largest socket group,
// then (disjoint, at leaderBase) for the largest socket-leader set, per
// parity. The socket-member and socket-leader ranges must not overlap: at a
// node leader both its own socket's members and the other socket leaders
// deposit concurrently.
func red3Layout(v *team.View) (regions, leaderBase int) {
	memo := team.MemoKey{Kind: "core:red3layout"}
	if x := v.Cached(memo); x != nil {
		l := x.([2]int)
		return l[0], l[1]
	}
	t := v.T
	maxGroup := 1
	maxLead := 1
	for gi := 0; gi < t.NumNodeGroups(); gi++ {
		for _, sg := range t.SocketGroups(gi) {
			if len(sg) > maxGroup {
				maxGroup = len(sg)
			}
		}
		if l := len(t.SocketLeaders(gi)); l > maxLead {
			maxLead = l
		}
	}
	v.Cache(memo, [2]int{maxGroup + maxLead, maxGroup})
	return maxGroup + maxLead, maxGroup
}

package core

import (
	"fmt"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// BarrierTDLB3 is the multi-level extension of TDLB the paper lists as
// future work ("multi-level hierarchies to represent ... NUMA memory nodes,
// shared caches, processor sockets and cores"): a three-level barrier with
//
//	Step 1: core images synchronize with their *socket* leader (shared
//	        memory, cheapest coherence domain);
//	Step 2: socket leaders synchronize with their *node* leader (shared
//	        memory across sockets);
//	Step 3: node leaders run the dissemination barrier over the network;
//	Steps 4-5: releases cascade back down node -> socket -> core.
//
// Flag layout: slot 0 socket arrivals, slot 1 socket release, slot 2 node
// arrivals (from socket leaders), slot 3 node release, slots 4.. the
// leaders' dissemination rounds.
func BarrierTDLB3(v *team.View) {
	t := v.T
	n := t.Size()
	v.Img.World().Stats().Count(trace.OpBarrier)
	if n == 1 {
		return
	}
	leaders := t.Leaders()
	st := coll.GetState(v, coll.Alg{"tdlb3"}, 4+coll.Rounds(len(leaders)))
	ep := st.Next()
	me := v.Img
	gi := t.GroupOf(v.Rank)
	nodeLeader := t.LeaderOf(v.Rank)
	sgroups := t.SocketGroups(gi)
	sleaders := t.SocketLeaders(gi)
	mySocketGroup, mySocketLeader := socketOf(sgroups, sleaders, v.Rank)

	if v.Rank != mySocketLeader {
		// Step 1 (core): arrive at the socket leader, await release.
		me.NotifyAdd(st.Flags, t.GlobalRank(mySocketLeader), 0, 1, pgas.ViaShm)
		me.WaitFlagGE(st.Flags, me.Rank(), 1, ep)
		return
	}
	if len(mySocketGroup) > 1 {
		me.WaitFlagGE(st.Flags, me.Rank(), 0, ep*int64(len(mySocketGroup)-1))
	}
	if v.Rank != nodeLeader {
		// Step 2 (socket leader): arrive at the node leader, await
		// release, then release my socket.
		me.NotifyAdd(st.Flags, t.GlobalRank(nodeLeader), 2, 1, pgas.ViaShm)
		me.WaitFlagGE(st.Flags, me.Rank(), 3, ep)
	} else {
		if len(sleaders) > 1 {
			me.WaitFlagGE(st.Flags, me.Rank(), 2, ep*int64(len(sleaders)-1))
		}
		// Step 3: network dissemination among node leaders. Rounds
		// start at slot 4.
		l := len(leaders)
		myPos := t.LeaderPos(v.Rank)
		for k := 0; 1<<k < l; k++ {
			partner := leaders[(myPos+1<<k)%l]
			me.NotifyAdd(st.Flags, t.GlobalRank(partner), 4+k, 1, pgas.ViaConduit)
			me.WaitFlagGE(st.Flags, me.Rank(), 4+k, ep)
		}
		// Step 4: release the other socket leaders on this node.
		for _, sl := range sleaders {
			if sl == v.Rank {
				continue
			}
			me.NotifySet(st.Flags, t.GlobalRank(sl), 3, ep, pgas.ViaShm)
		}
	}
	// Step 5: release my socket group.
	for _, r := range mySocketGroup {
		if r == v.Rank {
			continue
		}
		me.NotifySet(st.Flags, t.GlobalRank(r), 1, ep, pgas.ViaShm)
	}
}

// socketOf locates rank's socket group and leader within a node group.
func socketOf(sgroups [][]int, sleaders []int, rank int) ([]int, int) {
	for i, sg := range sgroups {
		for _, r := range sg {
			if r == rank {
				return sg, sleaders[i]
			}
		}
	}
	panic(fmt.Sprintf("core: rank %d not found in its node's socket groups", rank))
}

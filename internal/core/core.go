// Package core implements the paper's primary contribution: the memory
// hierarchy-aware, team-based runtime methodology for collective operations
// in a PGAS runtime.
//
// The methodology (paper §IV-A) is two-step:
//
//  1. detect, within each team, the images that run on the same node (the
//     "intranode set") and designate a leader per node — internal/team
//     precomputes this as the team's hierarchy view;
//  2. run each collective as a two-level composition: an intra-node phase
//     over shared memory (where a centralized/linear scheme is cheap,
//     because notifications are loads and stores), and an inter-node phase
//     among the node leaders only (where a distributed dissemination /
//     recursive-doubling / binomial scheme fits the message-passing cost
//     model).
//
// The package provides:
//
//   - BarrierTDLB — the Team Dissemination Linear Barrier (Algorithm 1);
//   - AllreduceTwoLevel — the two-level all-to-all reduction;
//   - BcastTwoLevel — the two-level one-to-all broadcast;
//   - BarrierTDLB3 / AllreduceThreeLevel — the multi-level (socket-aware)
//     extension the paper lists as future work;
//   - Policy — runtime selection between flat and hierarchy-aware
//     algorithms from the team's hierarchy shape.
//
// This package is backend-agnostic: it speaks to the runtime only through
// internal/pgas (the Transport seam) and must never import internal/sim.
// That boundary used to be a hand-verified review convention; it is now
// enforced mechanically by internal/lint's layers analyzer (run as
// cmd/caflint via go vet), so refactors here can lean on CI instead of
// comment archaeology.
package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// BarrierTDLB is the Team Dissemination Linear Barrier (paper Algorithm 1),
// run by every image of the team:
//
//	Step 1: the images of each intranode set synchronize with their node
//	        leader through a linear counter in shared memory
//	        (linear_counter_1);
//	Step 2: the node leaders synchronize among themselves with a PGAS
//	        dissemination barrier over the network (pgased_dissemination);
//	Step 3: each leader releases its intranode set through shared memory
//	        (linear_counter_2).
//
// With one image per node every image is a leader, both linear phases
// vanish, and TDLB degenerates to the pure dissemination barrier — the
// paper's flat-hierarchy parity result (E1).
func BarrierTDLB(v *team.View) {
	t := v.T
	n := t.Size()
	v.Img.World().Stats().Count(trace.OpBarrier)
	if n == 1 {
		return
	}
	leaders := t.Leaders()
	// Flag layout: slot 0 counts intranode arrivals at the node leader (the
	// "cocounter" of Algorithm 1), slot 1 carries the leader's release stamp,
	// slots 2.. are the dissemination round flags used by the leaders.
	st := coll.GetState(v, coll.Alg{"tdlb"}, 2+coll.Rounds(len(leaders)))
	ep := st.Next()
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	group := t.NodeGroup(t.GroupOf(v.Rank))

	if v.Rank != leader {
		// Step 1 (slave side): bump the leader's cocounter, then wait
		// for the release — both through shared memory.
		me.NotifyAdd(st.Flags, t.GlobalRank(leader), 0, 1, pgas.ViaShm)
		me.WaitFlagGE(st.Flags, me.Rank(), 1, ep)
		return
	}
	// Step 1 (leader side): wait for the intranode set to arrive.
	if len(group) > 1 {
		me.WaitFlagGE(st.Flags, me.Rank(), 0, ep*int64(len(group)-1))
	}
	// Step 2: dissemination among leaders over the conduit.
	leaderDissemination(v, st, leaders, ep)
	// Step 3: release the intranode set.
	for _, r := range group {
		if r == v.Rank {
			continue
		}
		me.NotifySet(st.Flags, t.GlobalRank(r), 1, ep, pgas.ViaShm)
	}
}

// leaderDissemination runs the dissemination rounds among the leaders list;
// the caller must be a leader. Flag slots 2.. hold the round counters.
func leaderDissemination(v *team.View, st *coll.State, leaders []int, ep int64) {
	l := len(leaders)
	if l == 1 {
		return
	}
	t := v.T
	me := v.Img
	myPos := t.LeaderPos(v.Rank)
	for k := 0; 1<<k < l; k++ {
		partner := leaders[(myPos+1<<k)%l]
		me.NotifyAdd(st.Flags, t.GlobalRank(partner), 2+k, 1, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), 2+k, ep)
	}
}

// BarrierTDLL is the ablation variant that uses a *linear* barrier among the
// node leaders instead of dissemination (experiment E6): intra-node linear,
// inter-node linear through the first leader.
func BarrierTDLL(v *team.View) {
	t := v.T
	n := t.Size()
	v.Img.World().Stats().Count(trace.OpBarrier)
	if n == 1 {
		return
	}
	leaders := t.Leaders()
	st := coll.GetState(v, coll.Alg{"tdll"}, 4)
	ep := st.Next()
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	group := t.NodeGroup(t.GroupOf(v.Rank))

	if v.Rank != leader {
		me.NotifyAdd(st.Flags, t.GlobalRank(leader), 0, 1, pgas.ViaShm)
		me.WaitFlagGE(st.Flags, me.Rank(), 1, ep)
		return
	}
	if len(group) > 1 {
		me.WaitFlagGE(st.Flags, me.Rank(), 0, ep*int64(len(group)-1))
	}
	// Linear among leaders, rooted at the first leader.
	rootLeader := leaders[0]
	if v.Rank == rootLeader {
		if len(leaders) > 1 {
			me.WaitFlagGE(st.Flags, me.Rank(), 2, ep*int64(len(leaders)-1))
		}
		for _, lr := range leaders[1:] {
			me.NotifySet(st.Flags, t.GlobalRank(lr), 3, ep, pgas.ViaConduit)
		}
	} else {
		me.NotifyAdd(st.Flags, t.GlobalRank(rootLeader), 2, 1, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), 3, ep)
	}
	for _, r := range group {
		if r == v.Rank {
			continue
		}
		me.NotifySet(st.Flags, t.GlobalRank(r), 1, ep, pgas.ViaShm)
	}
}

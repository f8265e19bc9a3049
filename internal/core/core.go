// Package core implements the paper's primary contribution: the memory
// hierarchy-aware, team-based runtime methodology for collective operations
// in a PGAS runtime.
//
// The methodology (paper §IV-A) is stated once: synchronize or combine inside
// each shared-memory group up to the group's leader, where notifications are
// loads and stores and a centralized scheme is cheap; run a distributed
// algorithm (dissemination, recursive doubling, binomial) among the node
// leaders only, where the message-passing cost model applies; release back
// down. internal/team precomputes the groups and leaders as each team's
// hierarchy view; "multi-level hierarchies (NUMA nodes, sockets)" are the same
// recipe with more levels.
//
// So an image's way up the hierarchy is a value — levelsOf: the groups it
// belongs to or leads, innermost first, each with its leader — and each
// hierarchy-aware algorithm is written once over it:
//
//   - barrierLeveled is the barrier. BarrierTDLB (paper Algorithm 1),
//     BarrierTDLL (linear among the leaders, the E6 ablation) and
//     BarrierTDLB3 (socket-aware) are instantiations.
//   - allreduceLeveled is the all-to-all reduction. AllreduceTwoLevel and
//     AllreduceThreeLevel are instantiations.
//
// The slot/level rule both share: level d of the walk owns flag slots 2d
// (arrivals at the level's leader) and 2d+1 (its release); the leaders' phase
// takes the slots that follow. The rooted and personalized collectives
// (BcastTwoLevel, ReduceToRootTwoLevel, ScatterTwoLevel, GatherTwoLevel,
// AllgatherTwoLevel, AlltoallTwoLevel, ScanTwoLevel) are two-level
// compositions of their own, because the root's position decides each image's
// role. Where they replicate or combine, their leaders' stage is log-depth like
// the two above: the binomial trees of BcastTwoLevel and ReduceToRootTwoLevel,
// Bruck's algorithm over node blocks (coll.SubgroupAllgatherBruck) in
// AllgatherTwoLevel and, from logDepthLeaders node leaders up, the
// pairwise-exchange scan of coll.SubgroupExscan in ScanTwoLevel (below that
// number a chain, which measures faster there). Where they distribute or
// exchange, flow control sends only what no wait already proves: a done wave
// reaches the images a root writes to (ScatterTwoLevel's stops at the node
// leaders) and AlltoallTwoLevel's own exchange frees every region, so it sends
// no credit. What they share is the protocol under them, and that is written
// once, in internal/coll's vocabulary: a landing area is a coll.Box (it owns
// the episode's parity and the region offsets), a wait is State.Arrivals, Gate
// or Inject (with the Publish done wave and its Relay), a member's receipt and
// ack of its block is Box.Land, and on top of those this package has one stage
// verb of its own: fanOut, a leader's gated delivery to its intranode set. No
// body multiplies a parity by a capacity or reads a counter. Policy selects
// between flat and hierarchy-aware algorithms from the team's hierarchy shape
// and the message size.
//
// This package is backend-agnostic: it speaks to the runtime only through
// internal/pgas (the Transport seam) and must never import internal/sim —
// internal/lint's layers analyzer (run as cmd/caflint via go vet) enforces it.
package core

import (
	"fmt"
	"slices"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// level is one step of an image's way up the memory hierarchy: a group of
// team ranks that share a level of it, and the member that goes on to the
// next level for all of them.
type level struct {
	group  []int
	leader int
}

// levelsOf fills buf with rank's way up, innermost first, and returns the
// levels in use: the intranode set for the two-level runtime; with sockets,
// the socket group, then the socket leaders of the node. Only a level's
// leader climbs on, so an image reads the levels up to the first it does not
// lead. The last level's leader is the node leader. The groups are the team's
// own slices and buf is the caller's: nothing is allocated.
func levelsOf(t *team.Team, rank int, sockets bool, buf *[2]level) []level {
	gi := t.GroupOf(rank)
	if !sockets {
		buf[0] = level{t.NodeGroup(gi), t.LeaderOf(rank)}
		return buf[:1]
	}
	sleaders := t.SocketLeaders(gi)
	for i, sg := range t.SocketGroups(gi) {
		if slices.Contains(sg, rank) {
			buf[0] = level{sg, sleaders[i]}
			buf[1] = level{sleaders, t.LeaderOf(rank)}
			return buf[:2]
		}
	}
	panic(fmt.Sprintf("core: rank %d not found in its node's socket groups", rank))
}

// levelWidths returns the size of the largest group of each level over the
// whole team: what a per-level inbox is sized from.
func levelWidths(t *team.Team, sockets bool) [2]int {
	if !sockets {
		return [2]int{t.MaxNodeGroup(), 0}
	}
	return [2]int{t.MaxSocketGroup(), t.MaxSockets()}
}

// fanOut delivers, over shared memory, block(i, r) — group position i, team
// rank r — into region 0 of r's box, for every member of the leader's group
// but skip (the episode's root, which has its data; −1 for none), gated on
// the acks (ackSlot) of its previous same-parity fan-out. The leader's own
// position is asked for too, in group order, and not sent: assembling a block
// may be charged work, its own included.
func fanOut[T any](v *team.View, st *coll.State, box coll.Box[T], group []int, skip, ackSlot, slot int, block func(i, r int) []T) {
	st.Gate(ackSlot, others(v, group, skip))
	for i, r := range group {
		if r == skip {
			continue
		}
		if b := block(i, r); r != v.Rank {
			box.Put(r, 0, b, slot, pgas.ViaShm)
		}
	}
}

// others counts the members of group besides the caller and skip.
func others(v *team.View, group []int, skip int) int {
	n := 0
	for _, r := range group {
		if r != v.Rank && r != skip {
			n++
		}
	}
	return n
}

// barrierLeveled is the hierarchy-aware barrier, run by every image of the
// team (paper Algorithm 1, for any number of shared-memory levels):
//
//	up:   at each level the image arrives at the level's leader through a
//	      linear counter in shared memory and awaits its release; only the
//	      leader — once its whole group arrived — climbs on;
//	top:  the node leaders synchronize among themselves over the network,
//	      with the dissemination barrier or (linearTop) the linear one;
//	down: each leader releases the groups it leads through shared memory,
//	      outermost first.
//
// Flag layout: level d has slot 2d for arrivals at its leader (the
// "cocounter" of Algorithm 1) and slot 2d+1 for the leader's release stamp;
// the leaders' barrier uses the slots that follow.
func barrierLeveled(v *team.View, name string, sockets, linearTop bool) {
	t := v.T
	v.Img.World().Stats().Count(trace.OpBarrier)
	if t.Size() == 1 {
		return
	}
	var buf [2]level
	levels := levelsOf(t, v.Rank, sockets, &buf)
	leaders := t.Leaders()
	top := 2 * len(levels)
	topSlots := coll.Rounds(len(leaders))
	if linearTop {
		topSlots = 2
	}
	st := coll.GetState(v, coll.Alg{name}, top+topSlots)
	ep := st.Next()
	me := v.Img

	d := 0
	for ; d < len(levels); d++ {
		lv := levels[d]
		if v.Rank != lv.leader {
			me.NotifyAdd(st.Flags, t.GlobalRank(lv.leader), 2*d, 1, pgas.ViaShm)
			me.WaitFlagGE(st.Flags, me.Rank(), 2*d+1, ep)
			break
		}
		if len(lv.group) > 1 {
			me.WaitFlagGE(st.Flags, me.Rank(), 2*d, ep*int64(len(lv.group)-1))
		}
	}
	if d == len(levels) {
		if linearTop {
			coll.SubgroupLinear(v, st, top, leaders, t.LeaderPos(v.Rank), ep)
		} else {
			coll.SubgroupDissemination(v, st, top, leaders, t.LeaderPos(v.Rank), ep)
		}
	}
	// d is the first level the image does not lead: it releases those below.
	for d--; d >= 0; d-- {
		for _, r := range levels[d].group {
			if r != v.Rank {
				me.NotifySet(st.Flags, t.GlobalRank(r), 2*d+1, ep, pgas.ViaShm)
			}
		}
	}
}

// BarrierTDLB is the Team Dissemination Linear Barrier (paper Algorithm 1):
// linear_counter_1 up to the node leader, pgased_dissemination among the
// leaders, linear_counter_2 back down. With one image per node every image
// is a leader, both linear phases vanish, and TDLB degenerates to the pure
// dissemination barrier — the paper's flat-hierarchy parity result (E1).
func BarrierTDLB(v *team.View) { barrierLeveled(v, "tdlb", false, false) }

// BarrierTDLL is the ablation variant that uses a *linear* barrier among the
// node leaders instead of dissemination (experiment E6): intra-node linear,
// inter-node linear through the first leader.
func BarrierTDLL(v *team.View) { barrierLeveled(v, "tdll", false, true) }

// BarrierTDLB3 is the multi-level extension of TDLB the paper lists as
// future work ("multi-level hierarchies to represent ... NUMA memory nodes,
// shared caches, processor sockets and cores"): core images synchronize with
// their *socket* leader (the cheapest coherence domain), socket leaders with
// their *node* leader (shared memory across sockets), node leaders by
// dissemination over the network; releases cascade back down.
func BarrierTDLB3(v *team.View) { barrierLeveled(v, "tdlb3", true, false) }

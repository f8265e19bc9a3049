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
//	up:   at each level the group's vectors combine at the level's leader
//	      over shared memory (reduceUp: the leader alone, or for large
//	      vectors every member a slice of them) and the members await the
//	      result; only the leader climbs on;
//	top:  the node leaders run a recursive-doubling all-reduce among
//	      themselves over the network (state name leadName);
//	down: each leader ships the result to the groups it leads over shared
//	      memory, outermost first.
//
// buf is combined in place on every image. Flag layout: level d has slot d
// for the leader's result release; reduceUp's per-sender slice slots follow,
// one range per level as wide as the level's largest group, then its
// per-combiner gather slots, ranged alike.
func allreduceLeveled[T any](v *team.View, buf []T, op coll.Op[T], name, leadName string, sockets bool) {
	t := v.T
	v.Img.World().Stats().Count(trace.OpReduce)
	if t.Size() == 1 {
		return
	}
	var lbuf [2]level
	levels := levelsOf(t, v.Rank, sockets, &lbuf)
	// The slice and gather regions of a level are a range as wide as the
	// level's largest group, one region per position in the group. The ranges
	// must not overlap: at a node leader both its own socket's members and the
	// other socket leaders deposit concurrently.
	widths := levelWidths(t, sockets)
	regions := widths[0] + widths[1]
	st := coll.GetState(v, coll.Alg{name, op.Name, pgas.TypeName[T]()}, len(levels)+2*regions)
	st.Next()
	// The result landing region of everyone the result cascades down to.
	res := coll.NewBox[T](st, "res", len(buf), 1)

	s := upStage{regions: regions, slices: len(levels), credit: -1}
	d := 0
	for ; d < len(levels); d++ {
		s.level = levels[d]
		reduceUp(v, st, buf, op, &s)
		if v.Rank != s.leader {
			st.Arrivals(d, 1)
			res.Take(0, buf)
			break
		}
		s.first += widths[d]
	}
	if d == len(levels) {
		leadersAllreduce(v, buf, op, leadName)
	}
	// d is the first level the image does not lead: it releases those below.
	for d--; d >= 0; d-- {
		for _, r := range levels[d].group {
			if r != v.Rank {
				res.Put(r, 0, buf, d, pgas.ViaShm)
			}
		}
	}
}

// leadersAllreduce is allreduceLeveled's top: the recursive-doubling
// all-reduce among the node leaders. It has a frame of its own because every
// member's put runs through allreduceLeveled's: the call's arguments there
// would put the members of a 4096-image world on 8 KB stacks.
//
//go:noinline
func leadersAllreduce[T any](v *team.View, buf []T, op coll.Op[T], leadName string) {
	coll.SubgroupAllreduceRD(v, v.T.Leaders(), v.T.GroupOf(v.Rank), buf, op, coll.Alg{leadName, op.Name})
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
// intranode set over shared memory as soon as it has forwarded the payload
// down the tree, while the tree's acks are still on their way. root is a team
// rank.
//
// A payload larger than one segment (segments: segBytes per round of the
// leaders' tree), on a team where some node hosts more than one image,
// travels in segments along the whole path: the handoff, the leaders' tree
// (coll.SubgroupBcastBinomial's pipeline) and the fan-out. The root's leader forwards each handoff segment as soon as it has landed,
// every leader fans each segment out as soon as it has forwarded it, and
// every member copies each segment out as soon as it lands. With one segment
// this is the unsegmented episode, and with one image per node it is exactly
// coll.BcastBinomial.
func BcastTwoLevel[T any](v *team.View, root int, buf []T) {
	t := v.T
	v.Img.World().Stats().Count(trace.OpBroadcast)
	if t.Size() == 1 {
		return
	}
	// Flag layout: slots 0/1 parity fan-out acks at leaders, slots 2/3 parity
	// handoff credits at the root, then per segment s and parity p: slot
	// 4+2s+p handoff arrivals at the root's leader and slot 4+2·maxSegs+2s+p
	// fan-out arrivals at members. Roles vary with the root, so every wait
	// counts exactly (State.Arrivals).
	st := coll.GetState(v, coll.Alg{"bc2", pgas.TypeName[T]()}, 4+4*maxSegs)
	parity := st.Next()
	segs := segments(t, len(buf), pgas.ElemSize[T]())
	// One landing region on every image: the root's leader lands the handoff
	// in it, everyone else the fan-out.
	box := coll.NewBox[T](st, "", len(buf), 1)
	leader := t.LeaderOf(v.Rank)
	rootLeader := t.LeaderOf(root)
	ackSlot, creditSlot := parity, 2+parity
	handoff, fan := 4+parity, 4+2*maxSegs+parity
	// Step 0: a non-leader source hands the payload to its node leader.
	// The handoff is the one edge with no downstream wait on the root's
	// critical path, so it carries its own credit: the root may not reuse
	// a parity landing region before the leader acked consuming the
	// previous same-parity handoff.
	if v.Rank == root && root != rootLeader {
		st.Gate(creditSlot, 1)
		for s := range segs {
			seg, off := coll.Segment(buf, s, segs)
			box.PutAt(rootLeader, 0, off, seg, handoff+2*s, pgas.ViaShm)
		}
	}
	// Step 1: binomial broadcast among node leaders (internally
	// flow-controlled), at whose root the root's leader lands each handoff
	// segment just before it forwards it. Step 2, called from inside it
	// once the leader has forwarded a segment (a leaf: landed it, and acked
	// the last): fan the segment out to the intranode set over shared
	// memory, the first once the same-parity fan-out of two episodes ago
	// was consumed.
	if v.Rank == leader {
		coll.SubgroupBcastBinomial(v, t.Leaders(), t.GroupOf(v.Rank), t.GroupOf(root), buf, coll.Alg{"core.bc2lead"}, segs, maxSegs,
			func(s int) {
				if root != rootLeader {
					landSegment(st, box, buf, s, segs, handoff, root, creditSlot, pgas.ViaShm)
				}
			},
			func(s int) {
				seg, off := coll.Segment(buf, s, segs)
				gate := ackSlot
				if s > 0 {
					gate = -1
				}
				fanOut(v, st, box, t.NodeGroup(t.GroupOf(v.Rank)), root, gate, fan+2*s, off, func(int, int) []T { return seg })
			})
		return
	}
	if v.Rank != root { // the source already has the data
		for s := range segs {
			landSegment(st, box, buf, s, segs, fan, leader, ackSlot, pgas.ViaShm)
		}
	}
}

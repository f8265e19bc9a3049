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
	st.Next()
	// Two boxes: a leader's inbox and the result landing region of everyone
	// the result cascades down to. The inbox has a range of regions per level,
	// as wide as the level's largest group, one region per position in the
	// group. The ranges must not overlap: at a node leader both its own
	// socket's members and the other socket leaders deposit concurrently.
	widths := levelWidths(t, sockets)
	inbox := coll.NewBox[T](st, "in", n, widths[0]+widths[1])
	res := coll.NewBox[T](st, "res", n, 1)
	me := v.Img

	d, first := 0, 0 // first: the level's range of inbox regions
	for ; d < len(levels); d++ {
		lv := levels[d]
		if v.Rank != lv.leader {
			inbox.Put(lv.leader, first+groupPos(lv.group, v.Rank), buf, 2*d, pgas.ViaShm)
			st.Arrivals(2*d+1, 1)
			res.Take(0, buf)
			break
		}
		if len(lv.group) > 1 {
			st.Arrivals(2*d, len(lv.group)-1)
			for i, r := range lv.group {
				if r != v.Rank {
					op.Combine(buf, inbox.Region(first + i)[:n])
					me.MemWork(2 * es * n)
				}
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
				res.Put(r, 0, buf, 2*d+1, pgas.ViaShm)
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
// intranode set over shared memory as soon as it has forwarded the payload
// down the tree, while the tree's acks are still on their way. root is a team
// rank.
func BcastTwoLevel[T any](v *team.View, root int, buf []T) {
	t := v.T
	v.Img.World().Stats().Count(trace.OpBroadcast)
	if t.Size() == 1 {
		return
	}
	// Flag layout: slot 0 handoff arrivals at the root's leader, slot 1
	// fan-out arrivals at members, slots 3/4 parity fan-out acks at leaders,
	// slots 5/6 parity handoff credits at the root. Roles vary with the root,
	// so every wait counts exactly (State.Arrivals).
	st := coll.GetState(v, coll.Alg{"bc2", pgas.TypeName[T]()}, 7)
	parity := int(st.Next() % 2)
	// One landing region on every image: the root's leader lands the handoff
	// in it, everyone else the fan-out.
	box := coll.NewBox[T](st, "", len(buf), 1)
	leader := t.LeaderOf(v.Rank)
	rootLeader := t.LeaderOf(root)
	ackSlot := 3 + parity
	// Step 0: a non-leader source hands the payload to its node leader.
	// The handoff is the one edge with no downstream wait on the root's
	// critical path, so it carries its own credit: the root may not reuse
	// a parity landing region before the leader acked consuming the
	// previous same-parity handoff (slots 5/6).
	if v.Rank == root && root != rootLeader {
		st.Gate(5+parity, 1)
		box.Put(rootLeader, 0, buf, 0, pgas.ViaShm)
	}
	if v.Rank == rootLeader && root != rootLeader {
		box.Land(0, buf, root, 5+parity, pgas.ViaShm)
	}
	// Step 1: binomial broadcast among node leaders (internally
	// flow-controlled). Step 2, called from inside it once the leader has
	// forwarded the payload (a leaf: acked it): fan out to the intranode set
	// over shared memory, once it has consumed the same-parity fan-out from
	// two episodes ago.
	if v.Rank == leader {
		coll.SubgroupBcastBinomial(v, t.Leaders(), t.LeaderPos(v.Rank), t.LeaderPos(rootLeader), buf, coll.Alg{"core.bc2lead"}, func() {
			fanOut(v, st, box, t.NodeGroup(t.GroupOf(v.Rank)), root, ackSlot, 1, func(int, int) []T { return buf })
		})
		return
	}
	if v.Rank != root { // the source already has the data
		box.Land(1, buf, leader, ackSlot, pgas.ViaShm)
	}
}

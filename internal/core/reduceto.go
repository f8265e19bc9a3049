package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// ReduceToRootTwoLevel is the memory-hierarchy-aware reduce-to-one (the CAF
// co_sum(result_image=...) family): intranode sets gather at their node
// leader over shared memory, the leaders run a binomial reduce-to-one to
// the root's leader over the network, and the root's leader hands the
// result to the root over shared memory. Only root's buf holds the result.
//
// Flag layout (in the shared redState): slots 5/6 parity intranode arrivals
// at the leader (parity-split because members here are only credit-gated,
// so a fast member can run one episode ahead), slot 1 the root handoff,
// slots 3/4 parity ack credits for the intranode landing regions.
func ReduceToRootTwoLevel[T any](v *team.View, root int, buf []T, op coll.Op[T]) {
	t := v.T
	v.Img.World().Stats().Count(trace.OpReduce)
	if t.Size() == 1 {
		return
	}
	n := len(buf)
	st := coll.GetState(v, coll.Alg{"redto2", op.Name, pgas.TypeName[T]()}, 7)
	ep := st.Next()
	// Two boxes: a leader's inbox (one region per position in its intranode
	// set) and the result landing region of a non-leader root.
	inbox := coll.NewBox[T](st, "in", n, t.MaxNodeGroup())
	res := coll.NewBox[T](st, "res", n, 1)
	parity := int(ep % 2)
	ackSlot := 3 + parity
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	group := t.NodeGroup(t.GroupOf(v.Rank))
	rootLeader := t.LeaderOf(root)

	if v.Rank != leader {
		// Contribute to the node leader; gate region reuse on the
		// leader's credit for my previous same-parity episode.
		st.Gate(ackSlot, 1)
		inbox.Put(leader, groupPos(group, v.Rank), buf, 5+parity, pgas.ViaShm)
		if v.Rank == root {
			// A non-leader root receives the final result from its
			// leader.
			st.Arrivals(1, 1)
			res.Take(0, buf)
		}
		return
	}
	// Leader: combine the intranode set, crediting each contributor.
	if len(group) > 1 {
		st.Arrivals(5+parity, len(group)-1)
		for i, r := range group {
			if r != v.Rank {
				op.Combine(buf, inbox.Region(i)[:n])
				me.MemWork(2 * pgas.ElemSize[T]() * n)
				me.NotifyAdd(st.Flags, t.GlobalRank(r), ackSlot, 1, pgas.ViaShm)
			}
		}
	}
	// Binomial reduce-to-one among leaders, to the root's leader.
	coll.SubgroupReduceToRoot(v, t.Leaders(), t.LeaderPos(v.Rank), t.LeaderPos(rootLeader), buf, op, coll.Alg{"core.redto2lead", op.Name})
	// Hand the result to a non-leader root.
	if v.Rank == rootLeader && root != rootLeader {
		res.Put(root, 0, buf, 1, pgas.ViaShm)
	}
}

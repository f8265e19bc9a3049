package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// ReduceToRootTwoLevel is the memory-hierarchy-aware reduce-to-one (the CAF
// co_sum(result_image=...) family): intranode sets combine at their node
// leader over shared memory (reduceUp: the leader alone, or for large vectors
// every member a slice of them), the leaders run a binomial reduce-to-one to
// the root's leader over the network, and the root's leader hands the result
// to the root over shared memory. Only root's buf holds the result.
//
// Flag layout: slot 0 the root handoff; slot 1 the leader's credit to its
// members once it holds the node's result (members here are only
// credit-gated, so without it a fast member would run an episode ahead), then
// reduceUp's per-sender slice slots and its per-combiner gather slots, each
// range as wide as the largest node group.
func ReduceToRootTwoLevel[T any](v *team.View, root int, buf []T, op coll.Op[T]) {
	t := v.T
	v.Img.World().Stats().Count(trace.OpReduce)
	if t.Size() == 1 {
		return
	}
	width := t.MaxNodeGroup()
	st := coll.GetState(v, coll.Alg{"redto2", op.Name, pgas.TypeName[T]()}, 2+2*width)
	st.Next()
	// The result landing region of a non-leader root.
	res := coll.NewBox[T](st, "res", len(buf), 1)
	leader := t.LeaderOf(v.Rank)
	rootLeader := t.LeaderOf(root)

	reduceUp(v, st, buf, op, &upStage{level: level{t.NodeGroup(t.GroupOf(v.Rank)), leader}, regions: width, slices: 2, credit: 1})
	if v.Rank != leader {
		if v.Rank == root {
			// A non-leader root receives the final result from its leader.
			st.Arrivals(0, 1)
			res.Take(0, buf)
		}
		return
	}
	// Binomial reduce-to-one among leaders, to the root's leader.
	coll.SubgroupReduceToRoot(v, t.Leaders(), t.GroupOf(v.Rank), t.GroupOf(root), buf, op, coll.Alg{"core.redto2lead", op.Name})
	// Hand the result to a non-leader root.
	if v.Rank == rootLeader && root != rootLeader {
		res.Put(root, 0, buf, 0, pgas.ViaShm)
	}
}

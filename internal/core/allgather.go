package core

import (
	"fmt"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// AllgatherTwoLevel gathers every member's mine vector into out on every
// member (ordered by team rank) with the two-level methodology: intranode
// sets gather at their node leader over shared memory, the leaders run an
// allgather of whole node blocks over the network — Bruck's concatenation
// algorithm, ceil(log2 nodes) rounds (coll.SubgroupAllgatherBruck) — and each
// leader fans every node block out to its intranode set over shared memory as
// soon as it has it: its own once its members' blocks are in, each other in
// the round that delivered it, so the fan-out runs while later rounds are on
// the wire. A node block travels as one put when its team ranks are
// consecutive and as one put per rank otherwise; a member lands them all in
// one region of the whole vector. With one image per node this is exactly
// coll.AllgatherBruck.
//
// Flag layout: slot 0 intranode arrivals at the leader, slot 1 fan-out
// arrivals at a member, slots 2.. the leaders' rounds.
func AllgatherTwoLevel[T any](v *team.View, mine, out []T) {
	t := v.T
	sz := t.Size()
	n := len(mine)
	if len(out) < sz*n {
		panic(fmt.Sprintf("core: allgather out %d < %d", len(out), sz*n))
	}
	v.Img.World().Stats().Count(trace.OpReduce)
	copy(out[v.Rank*n:], mine)
	if sz == 1 {
		return
	}
	st := coll.GetState(v, coll.Alg{"ag2", pgas.TypeName[T]()}, 2+coll.Rounds(t.NumNodeGroups()))
	st.Next()
	// The whole vector on every image, packed by team rank: a leader's members
	// contribute into it, a member lands the fan-out in it.
	vec := coll.NewBox[T](st, "", sz*n, 1)
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	if v.Rank == leader {
		allgatherTwoLevelLead(v, st, vec, out[:sz*n], n)
		return
	}
	vec.PutAt(leader, 0, v.Rank*n, mine, 0, pgas.ViaShm)
	st.Arrivals(1, nodeBlockPuts(t))
	copy(out, vec.Region(0)[:sz*n])
	me.MemWork(pgas.ElemSize[T]() * n * sz)
}

// nodeBlockPuts is the number of puts a member receives when its leader hands
// it one block of every node's team ranks: one per node block, or per rank of
// one whose team ranks are not consecutive.
func nodeBlockPuts(t *team.Team) int {
	puts := 0
	for gi := range t.NumNodeGroups() {
		if g := t.NodeGroup(gi); consecutive(g) {
			puts++
		} else {
			puts += len(g)
		}
	}
	return puts
}

// allgatherTwoLevelLead is a node leader's part of AllgatherTwoLevel: collect
// the node block, exchange node blocks with the other leaders, fan each block
// out as it lands. It assembles in out (every rank's n elements at rank·n). A
// function of its own for the reason scanTwoLevelLead is: the members carry
// none of its frame.
//
//go:noinline
func allgatherTwoLevelLead[T any](v *team.View, st *coll.State, vec coll.Box[T], out []T, n int) {
	t, me := v.T, v.Img
	gi := t.GroupOf(v.Rank)
	group := t.NodeGroup(gi)
	// fan puts node block b, from out, into every member's landing region.
	fan := func(b int) {
		blk := t.NodeGroup(b)
		for _, m := range group[1:] {
			if consecutive(blk) {
				lo, hi := blk[0]*n, (blk[len(blk)-1]+1)*n
				vec.PutAt(m, 0, lo, out[lo:hi], 1, pgas.ViaShm)
				continue
			}
			for _, r := range blk {
				vec.PutAt(m, 0, r*n, out[r*n:r*n+n], 1, pgas.ViaShm)
			}
		}
	}
	if len(group) > 1 {
		st.Arrivals(0, len(group)-1)
		in := vec.Region(0)
		for _, r := range group[1:] {
			copy(out[r*n:r*n+n], in[r*n:])
		}
		me.MemWork(pgas.ElemSize[T]() * n * (len(group) - 1))
		fan(gi)
	}
	// Allgather of node blocks among the leaders, straight into out; each
	// round's blocks go down to my set before the next round is waited for.
	leaders := t.Leaders()
	if steps := len(leaders) - 1; steps > 0 {
		mg := t.MaxNodeGroup()
		coll.SubgroupAllgatherBruck(st, 2, coll.NewBox[T](st, "blocks", n, steps*mg), leaders, gi,
			t.NodeGroup, mg, out, n, n, func(first, count int) {
				for i := range count {
					fan((first + i) % len(leaders))
				}
			})
	}
}

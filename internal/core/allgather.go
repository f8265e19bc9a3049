package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
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
// one region of the whole vector, and copies its own node's block, then each
// round's node blocks, into out as soon as that piece's puts are in. With one
// image per node this is exactly coll.AllgatherBruck.
//
// Flag layout: slot 0 intranode arrivals at the leader, slot 1 the fan-out of
// the own node's block at a member, slots 2+k the leaders' round k — on a
// leader's row — and the fan-out of round k's blocks — on a member's, which
// the leaders' rounds never touch.
func AllgatherTwoLevel[T any](v *team.View, mine, out []T) {
	if !coll.AllgatherOwn(v, mine, out) {
		return
	}
	t := v.T
	sz, n := t.Size(), len(mine)
	g := t.NumNodeGroups()
	st := coll.GetState(v, coll.Alg{"ag2", pgas.TypeName[T]()}, 2+coll.Rounds(g))
	st.Next()
	// The whole vector on every image, packed by team rank: a leader's members
	// contribute into it, a member lands the fan-out in it.
	vec := coll.NewBox[T](st, "", sz*n, 1)
	leader := t.LeaderOf(v.Rank)
	if v.Rank == leader {
		allgatherTwoLevelLead(v, st, vec, out[:sz*n], n)
		return
	}
	vec.PutAt(leader, 0, v.Rank*n, mine, 0, pgas.ViaShm)
	gi := t.GroupOf(v.Rank)
	landNodeBlocks(v, st, vec, out, n, 1, gi, 1)
	for k, have := 0, 1; have < g; k++ { // the leaders' Bruck rounds, as they deliver
		count := min(have, g-have)
		landNodeBlocks(v, st, vec, out, n, 2+k, gi+1<<k, count)
		have += count
	}
}

// landNodeBlocks is a member's receipt of one piece of AllgatherTwoLevel's
// fan-out: the count node blocks from group first on (mod the node count),
// whose puts arrive on slot, copied from the landing vector into out.
func landNodeBlocks[T any](v *team.View, st *coll.State, vec coll.Box[T], out []T, n, slot, first, count int) {
	t := v.T
	puts, ranks := 0, 0
	for i := range count {
		blk := t.NodeGroup((first + i) % t.NumNodeGroups())
		puts += blockPuts(blk)
		ranks += len(blk)
	}
	st.Arrivals(slot, puts)
	in := vec.Region(0)
	for i := range count {
		for _, r := range t.NodeGroup((first + i) % t.NumNodeGroups()) {
			copy(out[r*n:r*n+n], in[r*n:])
		}
	}
	v.Img.MemWork(pgas.ElemSize[T]() * n * ranks)
}

// nodeBlockPuts is the number of puts a member receives when its leader hands
// it one block of every node's team ranks.
func nodeBlockPuts(t *team.Team) int {
	puts := 0
	for gi := range t.NumNodeGroups() {
		puts += blockPuts(t.NodeGroup(gi))
	}
	return puts
}

// blockPuts is the number of puts a member receives when its leader hands it
// node block blk: one when its team ranks are consecutive, one per rank
// otherwise.
func blockPuts(blk []int) int {
	if consecutive(blk) {
		return 1
	}
	return len(blk)
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
	// fan puts node block b, from out, into every member's landing region,
	// arriving on slot.
	fan := func(b, slot int) {
		blk := t.NodeGroup(b)
		for _, m := range group[1:] {
			if consecutive(blk) {
				lo, hi := blk[0]*n, (blk[len(blk)-1]+1)*n
				vec.PutAt(m, 0, lo, out[lo:hi], slot, pgas.ViaShm)
				continue
			}
			for _, r := range blk {
				vec.PutAt(m, 0, r*n, out[r*n:r*n+n], slot, pgas.ViaShm)
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
		fan(gi, 1)
	}
	// Allgather of node blocks among the leaders, straight into out; each
	// round's blocks go down to my set, on the round's own slot, before the
	// next round is waited for.
	leaders := t.Leaders()
	if steps := len(leaders) - 1; steps > 0 {
		mg := t.MaxNodeGroup()
		coll.SubgroupAllgatherBruck(st, 2, coll.NewBox[T](st, "blocks", n, steps*mg), leaders, gi,
			t.NodeGroup, mg, out, n, n, func(k, first, count int) {
				for i := range count {
					fan((first+i)%len(leaders), 2+k)
				}
			})
	}
}

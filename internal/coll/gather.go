package coll

import (
	"fmt"
	"math/bits"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// GatherOwn is the entry of every gather: the root checks recv (which is
// significant only there) against the team's size and places its own block. It
// reports whether there is anyone else to hear from.
func GatherOwn[T any](v *team.View, root int, send, recv []T) bool {
	v.Img.World().Stats().Count(trace.OpReduce)
	sz, n := v.NumImages(), len(send)
	if v.Rank == root {
		if len(recv) < sz*n {
			panic(fmt.Sprintf("coll: gather recv %d < %d", len(recv), sz*n))
		}
		copy(recv[root*n:root*n+n], send)
		v.Img.MemWork(pgas.ElemSize[T]() * n)
	}
	return sz > 1
}

// GatherLinear collects every member's send block (n = len(send) elements)
// at team rank root: recv[r*n:(r+1)*n] = member r's send. recv is
// significant only at the root and must hold NumImages()*len(send) elements
// there. The centralized scheme — O(n) serialized messages into one image
// (SubgroupGatherLinear over the whole team).
func GatherLinear[T any](v *team.View, root int, send, recv []T) {
	if !GatherOwn(v, root, send, recv) {
		return
	}
	st := GetState(v, Alg{"ga.lin", tag[T]()}, 4)
	st.Next()
	ranks := v.T.Ranks()
	SubgroupGatherLinear(st, 0, ranks, v.Rank, root, func(i int) []int { return ranks[i : i+1] }, 1, send, recv, len(send))
}

// SubgroupGatherLinear is the centralized gather among a subgroup, with
// SubgroupGatherBinomial's contract: every participant but the root puts own
// into its region of the root's inbox, and the root unpacks each into recv by
// team rank, in index order (collectLinear), leaving its own block alone.
func SubgroupGatherLinear[T any](st *State, base int, group []int, myIdx, rootIdx int, block func(i int) []int, maxBlock int, own, recv []T, n int) {
	collectLinear(st, base, group, myIdx, rootIdx, maxBlock*n, own, func(i int, in []T) {
		for j, r := range block(i) {
			copy(recv[r*n:r*n+n], in[j*n:j*n+n])
			st.v.Img.MemWork(pgas.ElemSize[T]() * n)
		}
	})
}

// collectLinear is the centralized all-to-one scheme of SubgroupGatherLinear
// and ReduceToRootLinear: every participant but the root puts own into its
// region (slot elements) of the root's inbox, and the root hands each to
// consume, in index order, crediting the sender right after. Senders are
// credit-gated per parity, so a landing region is never overwritten before the
// root has consumed it. Flag layout on st, whose episode the caller has
// claimed: parity arrivals at the root (base, base+1), parity credits back to
// the senders (base+2, base+3).
func collectLinear[T any](st *State, base int, group []int, myIdx, rootIdx, slot int, own []T, consume func(i int, in []T)) {
	box := NewBox[T](st, "", slot, len(group))
	arriveSlot, creditSlot := base+st.parity(), base+2+st.parity()
	if myIdx != rootIdx {
		// Gate on the credit for my previous same-parity send.
		st.Gate(creditSlot, 1)
		box.Put(group[rootIdx], myIdx, own, arriveSlot, pgas.ViaConduit)
		return
	}
	// Arrival counts are root-dependent, so count exactly.
	st.Arrivals(arriveSlot, len(group)-1)
	for i, r := range group {
		if i != rootIdx {
			consume(i, box.Landed(i, 0, slot))
			st.Notify(r, creditSlot, pgas.ViaConduit)
		}
	}
}

// GatherBinomial collects the per-member blocks up the binomial gather tree:
// SubgroupGatherBinomial over the whole team, every member speaking for itself.
func GatherBinomial[T any](v *team.View, root int, send, recv []T) {
	if !GatherOwn(v, root, send, recv) {
		return
	}
	sz := v.NumImages()
	st := GetState(v, Alg{"ga.binom", tag[T]()}, 3*Rounds(sz))
	st.Next()
	ranks := v.T.Ranks()
	SubgroupGatherBinomial(st, 0, ranks, v.Rank, root, func(i int) []int { return ranks[i : i+1] }, 1, send, recv, len(send))
}

// SubgroupGatherBinomial is the binomial gather tree (the mirror of
// SubgroupScatterBinomial; MPICH's short-message gather, Thakur, Rabenseifner,
// Gropp 2005) among an arbitrary subgroup of a team, each participant
// speaking for a block of team ranks: every internal node of the "low bits
// free" tree over indices relative to rootIdx assembles the packed blocks of
// its subtree [rel, rel+lowbit(rel)) — its own block, then each child's packed
// range — and ships the whole range to its parent, so each block crosses the
// wire once per tree level it climbs.
//
// group lists the participating team ranks, myIdx is the caller's index within
// it and block(i) the team ranks participant i speaks for, at most maxBlock of
// them, n elements each. own is the caller's packed block (at the root, what
// of it it has; it is not unpacked): an internal node copies it to the head of
// its landing area, and the copy is charged whether it is made or not — a leaf
// ships own as it is — so that modeled times do not depend on the scratch
// layout. The root unpacks every other participant's block into recv, the n
// elements of team rank r at r·n.
//
// The protocol keys everything by tree edge, like SubgroupReduceToRoot: the
// child on edge k of index i is index i+2^k whatever the root, so a parent owns
// one arrival flag slot per edge and the edge-k child writes the same slice of
// the parent's parity landing area every time; a parent credits each child
// after consuming (on the child's slot for that edge and parity), and a child
// may not ship before the credit for its previous same-parity send over that
// edge arrived. Only the root may differ from episode to episode in who stands
// at an index, as it never ships.
//
// A landing area holds its owner's whole subtree, span·maxBlock·n elements, so
// it lives in the scratch of that span's size class: a leaf ships straight from
// own and touches no scratch, and only the root stages the whole group.
//
// Flag layout on st, whose episode the caller has claimed, nr = ⌈log2 g⌉:
// slots base+[0, nr) edge arrivals; slot base+nr+2·k+parity the credit from
// the edge-k parent.
func SubgroupGatherBinomial[T any](st *State, base int, group []int, myIdx, rootIdx int, block func(i int) []int, maxBlock int, own, recv []T, n int) {
	g := len(group)
	nr := Rounds(g)
	parity := st.parity()
	es := pgas.ElemSize[T]()
	me := st.v.Img
	rel := (myIdx - rootIdx + g) % g
	member := func(relIdx int) int { return group[(relIdx+rootIdx)%g] }
	span := func(a, b int) int { return packedLen(block, g, rootIdx, a, b, n) }
	nkids := binomialFanout(rel, g)
	pack := own // a leaf's packed range is its own block
	if nkids > 0 {
		box, cnt := subtreeBox[T](st, rel, g, maxBlock*n)
		pack = box.Region(0)[:span(rel, rel+cnt)]
		copy(pack, own) // my own block leads my packed range
	}
	me.MemWork(es * len(own))
	// Collect the children's packed subtree ranges (child rel+2^k for every k
	// below lowbit(rel), bounded by g).
	for k := nkids - 1; k >= 0; k-- {
		st.Arrivals(base+k, 1)
	}
	creditKids := func() {
		for k := nkids - 1; k >= 0; k-- {
			st.Notify(member(rel+1<<k), base+nr+2*k+parity, pgas.ViaConduit)
		}
	}
	if rel == 0 {
		// Root: unpack relative order back to absolute team ranks.
		at := span(0, 1)
		for q := 1; q < g; q++ {
			for _, r := range block((q + rootIdx) % g) {
				copy(recv[r*n:], pack[at:at+n])
				at += n
			}
		}
		me.MemWork(es * (at - span(0, 1)))
		creditKids()
		return
	}
	edge := bits.TrailingZeros(uint(rel))
	parentRel := rel - 1<<edge
	st.Gate(base+nr+2*edge+parity, 1)
	box, _ := subtreeBox[T](st, parentRel, g, maxBlock*n)
	box.PutAt(member(parentRel), 0, span(parentRel, rel), pack, base+edge, pgas.ViaConduit)
	creditKids()
}

// subtreeBox returns the landing box of the participant at relative index rel
// of a "low bits free" binomial tree over g participants: its whole subtree —
// span participants, the whole group at the root, otherwise lowbit(rel)
// clipped at the group's end — room for span slots of slot elements packed
// from region 0 in relative order, in the scratch of that subtree's size
// class. Owner and remote writer derive the same box from rel alone.
func subtreeBox[T any](st *State, rel, g, slot int) (box Box[T], span int) {
	span = g
	if rel != 0 {
		span = min(rel&-rel, g-rel)
	}
	return NewBox[T](st, "", span*slot, 1), span
}

// packedLen is the length of the packed blocks of the participants at
// relative indices [a, b) of a tree over g rooted at rootIdx, n elements per
// team rank.
func packedLen(block func(i int) []int, g, rootIdx, a, b, n int) int {
	l := 0
	for q := a; q < b; q++ {
		l += len(block((q + rootIdx) % g))
	}
	return l * n
}

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
// (collectLinear).
func GatherLinear[T any](v *team.View, root int, send, recv []T) {
	if !GatherOwn(v, root, send, recv) {
		return
	}
	n := len(send)
	collectLinear(v, root, Alg{"ga.lin", tag[T]()}, send, func(r int, in []T) {
		copy(recv[r*n:r*n+n], in)
		v.Img.MemWork(pgas.ElemSize[T]() * n)
	})
}

// collectLinear is the centralized all-to-one scheme of ReduceToRootLinear
// and GatherLinear: every member but the root puts mine into its own region of
// the root's inbox, and the root hands each to consume, in rank order,
// crediting the sender right after. Senders are credit-gated per parity, so a
// landing region is never overwritten before the root has consumed it.
//
// Flag layout: slots 0-1 parity arrivals at the root, slots 2-3 parity
// credits back to the senders.
func collectLinear[T any](v *team.View, root int, alg Alg, mine []T, consume func(r int, in []T)) {
	sz := v.NumImages()
	st := GetState(v, alg, 4)
	ep := st.Next()
	box := NewBox[T](st, "", len(mine), sz)
	parity := int(ep % 2)
	arriveSlot := parity
	creditSlot := 2 + parity
	if v.Rank != root {
		// Gate on the credit for my previous same-parity send.
		st.Gate(creditSlot, 1)
		box.Put(root, v.Rank, mine, arriveSlot, pgas.ViaConduit)
		return
	}
	// Arrival counts are root-dependent, so count exactly.
	st.Arrivals(arriveSlot, sz-1)
	for r := 0; r < sz; r++ {
		if r != root {
			consume(r, box.Region(r)[:len(mine)])
			v.Img.NotifyAdd(st.Flags, v.T.GlobalRank(r), creditSlot, 1, pgas.ViaConduit)
		}
	}
}

// GatherBinomial collects the per-member blocks up the "low bits free"
// binomial tree over relative ranks (the mirror of ScatterBinomial): every
// internal node assembles the packed blocks of its subtree [rel,
// rel+lowbit(rel)) — its own block plus each child's packed range — and
// ships the whole range to its parent, so each block crosses the wire once
// per tree level it climbs.
//
// The protocol keys everything by tree edge, like SubgroupReduceToRoot: the
// child on edge k of a member is the member 2^k above it whatever the root,
// so a parent owns one arrival flag slot per edge and the edge-k child
// writes the disjoint slice [2^k, 2^(k+1)) blocks of the parent's parity
// landing area; a parent credits each child after consuming (on the child's
// slot for that edge and parity), and a child may not ship before the
// credit for its previous same-parity send over that edge arrived.
//
// A landing area is as large as its owner's subtree, so it lives in the
// scratch of the owner's subtree size class: a leaf ships straight from
// send and touches no scratch, and only an episode's root stages the whole
// team.
//
// Flag layout, nr = ⌈log2 size⌉: slots [0, nr) edge arrivals; slot
// nr+2·k+parity the credit from the edge-k parent.
func GatherBinomial[T any](v *team.View, root int, send, recv []T) {
	if !GatherOwn(v, root, send, recv) {
		return
	}
	sz := v.NumImages()
	n := len(send)
	es := pgas.ElemSize[T]()
	nr := Rounds(sz)
	st := GetState(v, Alg{"ga.binom", tag[T]()}, 3*nr)
	ep := st.Next()
	parity := int(ep % 2)
	me := v.Img
	rel := (v.Rank - root + sz) % sz
	member := func(relIdx int) int { return (relIdx + root) % sz }
	nkids := binomialFanout(rel, sz)
	pack := send // a leaf's packed range is its own block
	if nkids > 0 {
		box, span := subtreeBox[T](st, rel, sz, n)
		pack = box.Region(0)[:span*n]
		copy(pack, send) // my own block leads my packed range
	}
	// Leaves are charged for the staging copy too, so that modeled times do
	// not depend on the scratch layout.
	me.MemWork(es * n)
	// Collect the children's packed subtree ranges (child rel+2^k for every
	// k below lowbit(rel), bounded by sz).
	for k := nkids - 1; k >= 0; k-- {
		st.Arrivals(k, 1)
	}
	creditKids := func() {
		for k := nkids - 1; k >= 0; k-- {
			me.NotifyAdd(st.Flags, v.T.GlobalRank(member(rel+1<<k)), nr+2*k+parity, 1, pgas.ViaConduit)
		}
	}
	if rel == 0 {
		// Root: unpack relative order back to absolute team ranks.
		for q := 1; q < sz; q++ {
			copy(recv[member(q)*n:], pack[q*n:(q+1)*n])
		}
		me.MemWork(es * (sz - 1) * n)
		creditKids()
		return
	}
	edge := bits.TrailingZeros(uint(rel))
	parentRel := rel - 1<<edge
	st.Gate(nr+2*edge+parity, 1)
	box, _ := subtreeBox[T](st, parentRel, sz, n)
	box.PutAt(member(parentRel), 0, (rel-parentRel)*n, pack, edge, pgas.ViaConduit)
	creditKids()
}

// subtreeBox returns the landing box of the member at relative rank rel of a
// "low bits free" binomial tree over sz ranks: its whole subtree — span blocks
// of n elements, the whole team at the root, otherwise lowbit(rel) ranks
// clipped at the team's end — packed n-contiguous in relative-rank order from
// region 0, in the scratch of that subtree's size class. Owner and remote
// writer derive the same box from rel alone.
func subtreeBox[T any](st *State, rel, sz, n int) (box Box[T], span int) {
	span = sz
	if rel != 0 {
		span = min(rel&-rel, sz-rel)
	}
	return NewBox[T](st, "", span*n, 1), span
}

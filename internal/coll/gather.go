package coll

import (
	"fmt"
	"math/bits"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// GatherLinear collects every member's send block (n = len(send) elements)
// at team rank root: recv[r*n:(r+1)*n] = member r's send. recv is
// significant only at the root and must hold NumImages()*len(send) elements
// there. The centralized scheme — O(n) serialized messages into one image —
// with the ReduceToRootLinear credit protocol: senders are parity
// credit-gated so a landing region is never overwritten before the root has
// copied it out.
//
// Flag layout: slots 0-1 parity arrivals at the root, slots 2-3 parity
// credits back to the senders.
func GatherLinear[T any](v *team.View, root int, send, recv []T) {
	sz := v.NumImages()
	n := len(send)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpReduce)
	if v.Rank == root {
		if len(recv) < sz*n {
			panic(fmt.Sprintf("coll: gather recv %d < %d", len(recv), sz*n))
		}
		copy(recv[root*n:root*n+n], send)
		v.Img.MemWork(es * n)
	}
	if sz == 1 {
		return
	}
	st := GetState(v, Alg{"ga.lin", tag[T]()}, 4)
	ep := st.Next()
	co, cap_ := Scratch[T](st, "", n, 2*sz)
	parity := int(ep % 2)
	arriveSlot := parity
	creditSlot := 2 + parity
	me := v.Img
	if v.Rank == root {
		// Arrival counts are root-dependent, so count exactly.
		st.Arrivals(arriveSlot, sz-1)
		local := pgas.Local(co, me)
		for r := 0; r < sz; r++ {
			if r == root {
				continue
			}
			off := (parity*sz + r) * cap_
			copy(recv[r*n:r*n+n], local[off:off+n])
			me.MemWork(es * n)
			me.NotifyAdd(st.Flags, v.T.GlobalRank(r), creditSlot, 1, pgas.ViaConduit)
		}
		return
	}
	// Gate on the credit for my previous same-parity send.
	st.Credit(creditSlot)
	off := (parity*sz + v.Rank) * cap_
	pgas.PutThenNotify(me, co, v.T.GlobalRank(root), off, send, st.Flags, arriveSlot, 1, pgas.ViaConduit)
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
	sz := v.NumImages()
	n := len(send)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpReduce)
	if v.Rank == root {
		if len(recv) < sz*n {
			panic(fmt.Sprintf("coll: gather recv %d < %d", len(recv), sz*n))
		}
		copy(recv[root*n:root*n+n], send)
		v.Img.MemWork(es * n)
	}
	if sz == 1 {
		return
	}
	nr := Rounds(sz)
	st := GetState(v, Alg{"ga.binom", tag[T]()}, 3*nr)
	ep := st.Next()
	parity := int(ep % 2)
	me := v.Img
	rel := (v.Rank - root + sz) % sz
	global := func(relIdx int) int { return v.T.GlobalRank((relIdx + root) % sz) }
	nkids := binomialFanout(rel, sz)
	pack := send // a leaf's packed range is its own block
	if nkids > 0 {
		co, base, span := subtreeArea[T](st, rel, sz, n, parity)
		local := pgas.Local(co, me)
		copy(local[base:base+n], send) // my own block leads my packed range
		pack = local[base : base+span*n]
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
			me.NotifyAdd(st.Flags, global(rel+1<<k), nr+2*k+parity, 1, pgas.ViaConduit)
		}
	}
	if rel == 0 {
		// Root: unpack relative order back to absolute team ranks.
		for q := 1; q < sz; q++ {
			b := (q + root) % sz
			copy(recv[b*n:b*n+n], pack[q*n:(q+1)*n])
		}
		me.MemWork(es * (sz - 1) * n)
		creditKids()
		return
	}
	edge := bits.TrailingZeros(uint(rel))
	parentRel := rel - 1<<edge
	creditSlot := nr + 2*edge + parity
	st.Credit(creditSlot)
	pco, pbase, _ := subtreeArea[T](st, parentRel, sz, n, parity)
	pgas.PutThenNotify(me, pco, global(parentRel), pbase+(rel-parentRel)*n, pack, st.Flags, edge, 1, pgas.ViaConduit)
	creditKids()
}

// subtreeArea returns the landing area of the member at relative rank rel of
// a "low bits free" binomial tree over sz ranks: its whole subtree — span
// blocks of n elements, the whole team at the root, otherwise lowbit(rel)
// ranks clipped at the team's end — packed n-contiguous in relative-rank
// order at base, this parity's half of the scratch of that subtree's size
// class. Owner and remote writer derive the same coarray from rel alone.
func subtreeArea[T any](st *State, rel, sz, n, parity int) (co *pgas.Coarray[T], base, span int) {
	span = sz
	if rel != 0 {
		span = min(rel&-rel, sz-rel)
	}
	co, cap_ := Scratch[T](st, "", span*n, 2)
	return co, parity * cap_, span
}

package coll

import (
	"fmt"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// ScatterLinear distributes per-member blocks from team rank root directly:
// the root puts block r of send (send[r*n:(r+1)*n], n = len(recv)) to member
// r — the centralized scheme, 2(n−1) serialized messages from one image.
// send is significant only at the root and must hold NumImages()*len(recv)
// elements there.
//
// Flow control mirrors BcastLinear: parity-indexed landing regions, parity
// ack slots converging at the episode root, a done-stamp wave, and an
// injection gate at done >= e−2 (roots vary between episodes, so completion
// must be published to every potential root).
//
// Flag layout: slots 0-1 parity payload arrivals, slots 2-3 parity acks,
// slot 4 done stamps.
func ScatterLinear[T any](v *team.View, root int, send, recv []T) {
	sz := v.NumImages()
	n := len(recv)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpBroadcast)
	if v.Rank == root {
		if len(send) < sz*n {
			panic(fmt.Sprintf("coll: scatter send %d < %d", len(send), sz*n))
		}
		copy(recv, send[root*n:root*n+n])
		v.Img.MemWork(es * n)
	}
	if sz == 1 {
		return
	}
	st := GetState(v, Alg{"sc.lin", tag[T]()}, 5)
	ep := st.Next()
	co, cap_ := Scratch[T](st, "", n, 2)
	parity := int(ep % 2)
	reg := parity * cap_
	paySlot := parity
	ackSlot := 2 + parity
	me := v.Img
	if v.Rank == root {
		me.WaitFlagGE(st.Flags, me.Rank(), 4, ep-2)
		for r := 0; r < sz; r++ {
			if r == root {
				continue
			}
			pgas.PutThenNotify(me, co, v.T.GlobalRank(r), reg, send[r*n:r*n+n], st.Flags, paySlot, 1, pgas.ViaConduit)
		}
		st.Arrivals(ackSlot, sz-1)
		me.SetLocal(st.Flags, 4, ep)
		for r := 0; r < sz; r++ {
			if r != root {
				me.NotifySet(st.Flags, v.T.GlobalRank(r), 4, ep, pgas.ViaConduit)
			}
		}
		return
	}
	st.Arrivals(paySlot, 1)
	copy(recv, pgas.Local(co, me)[reg:reg+n])
	me.MemWork(es * n)
	me.NotifyAdd(st.Flags, v.T.GlobalRank(root), ackSlot, 1, pgas.ViaConduit)
}

// ScatterBinomial distributes per-member blocks along the binomial scatter
// tree (the scatter half of the van de Geijn broadcast): each internal node
// of the "low bits free" tree over relative ranks receives the packed
// blocks of its whole subtree [rel, rel+lowbit(rel)) and forwards the upper
// half at every level — ceil(log2 n) depth, each block crossing the wire
// once per tree level it descends.
//
// Flow control is the SubgroupBcastBinomial credit scheme: parity payload
// and ack slots, an ack wave climbing back to the episode root, a done
// stamp, and a root injection gate at done >= e−2.
//
// A member's landing area holds its whole subtree, so it lives in the
// scratch of that subtree's size class (the sender picks the same class from
// the child's position): leaves land one block, and nobody stages the whole
// team — the root forwards from a private copy.
func ScatterBinomial[T any](v *team.View, root int, send, recv []T) {
	sz := v.NumImages()
	n := len(recv)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpBroadcast)
	if v.Rank == root {
		if len(send) < sz*n {
			panic(fmt.Sprintf("coll: scatter send %d < %d", len(send), sz*n))
		}
		copy(recv, send[root*n:root*n+n])
		v.Img.MemWork(es * n)
	}
	if sz == 1 {
		return
	}
	st := GetState(v, Alg{"sc.binom", tag[T]()}, 5)
	ep := st.Next()
	parity := int(ep % 2)
	paySlot := parity
	ackSlot := 2 + parity
	me := v.Img
	rel := (v.Rank - root + sz) % sz
	global := func(relIdx int) int { return v.T.GlobalRank((relIdx + root) % sz) }

	// tree holds the packed blocks for relative ranks [rel, rel+span).
	var tree []T
	if rel == 0 {
		me.WaitFlagGE(st.Flags, me.Rank(), 4, ep-2)
		tree = Temp[T](st, "tree", sz*n)
		for q := 0; q < sz; q++ {
			b := (q + root) % sz
			copy(tree[q*n:(q+1)*n], send[b*n:b*n+n])
		}
		me.MemWork(es * sz * n)
	} else {
		st.Arrivals(paySlot, 1)
		co, base, span := subtreeArea[T](st, rel, sz, n, parity)
		tree = pgas.Local(co, me)[base : base+span*n]
		copy(recv, tree[:n])
		me.MemWork(es * n)
	}
	// Forward subtree halves, deepest child first.
	nkids := 0
	for k := Rounds(sz) - 1; k >= 0; k-- {
		if rel%(1<<(k+1)) == 0 && rel+1<<k < sz {
			child := rel + 1<<k
			last := child + 1<<k
			if last > sz {
				last = sz
			}
			co, base, _ := subtreeArea[T](st, child, sz, n, parity)
			pgas.PutThenNotify(me, co, global(child), base, tree[(child-rel)*n:(last-rel)*n], st.Flags, paySlot, 1, pgas.ViaConduit)
			nkids++
		}
	}
	if nkids > 0 {
		st.Arrivals(ackSlot, nkids)
	}
	if rel != 0 {
		parent := rel - (rel & -rel)
		me.NotifyAdd(st.Flags, global(parent), ackSlot, 1, pgas.ViaConduit)
		return
	}
	me.SetLocal(st.Flags, 4, ep)
	for q := 1; q < sz; q++ {
		me.NotifySet(st.Flags, global(q), 4, ep, pgas.ViaConduit)
	}
}

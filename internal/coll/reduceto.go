package coll

import (
	"math/bits"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// SubgroupReduceToRoot reduces the participants' vectors onto the
// rootIdx-th member of group along a binomial tree; only the root's buf
// holds the result on return (the CAF co_sum(result_image=...) semantics).
//
// Unlike all-to-all reductions, a reduce-to-one has no downward data flow
// to throttle buffer reuse, and the tree shape changes with the root. What
// does not change is who sits on a tree *edge*: the tree is binomial over
// ranks relative to the root, so the child on edge k of member m — distance
// 2^k — is always member (m+2^k) mod g, and the parent a member reaches over
// edge k always (m−2^k) mod g, whatever the root. The protocol therefore
// keys everything by edge: a member owns one arrival flag slot and one
// parity-pair of landing regions per edge, each with a single writer
// (per-pair FIFO delivery makes the counters exact), for ⌈log g⌉ edges — not
// one per possible sender. A parent credits each child after combining, on
// the child's slot for that edge and parity, because only same-parity sends
// over the same edge reuse a landing region — and a child may not ship a
// contribution before the credit for its previous same-parity send over
// that edge arrived. Leaves touch no scratch at all.
//
// Flag layout, nr = ⌈log2 g⌉: slots [0, nr) edge arrivals; slot
// nr+2·k+parity the credit from the edge-k parent.
func SubgroupReduceToRoot[T any](v *team.View, group []int, myIdx, rootIdx int, buf []T, op Op[T], alg Alg) {
	g := len(group)
	if g == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	nr := Rounds(g)
	st := GetState(v, alg.With("redto", tag[T]()), 3*nr)
	st.Next()
	box := NewBox[T](st, "redto", n, nr)
	parity := st.parity()
	me := v.Img
	rel := (myIdx - rootIdx + g) % g

	// Children in the relative binomial tree (same shape as the gather of
	// AllreduceTree): rel's children are rel+2^k for k below rel's lowest
	// set bit. Deepest subtree first.
	for k := binomialFanout(rel, g) - 1; k >= 0; k-- {
		st.Arrivals(k, 1)
		op.Combine(buf, box.Landed(k, 0, n))
		me.MemWork(2 * es * n)
		// Credit the child: its parity landing region here is free.
		st.Notify(group[(myIdx+1<<k)%g], nr+2*k+parity, pgas.ViaConduit)
	}
	if rel == 0 {
		return
	}
	// Gate on the credit for my previous same-parity send over this edge.
	edge := bits.TrailingZeros(uint(rel))
	st.Gate(nr+2*edge+parity, 1)
	box.Put(group[(myIdx-1<<edge+g)%g], edge, buf, edge, pgas.ViaConduit)
}

// ReduceToRoot is the flat binomial reduce-to-one over the whole team;
// root is a team rank.
func ReduceToRoot[T any](v *team.View, root int, buf []T, op Op[T]) {
	v.Img.World().Stats().Count(trace.OpReduce)
	SubgroupReduceToRoot(v, v.T.Ranks(), v.Rank, root, buf, op, Alg{"redto.flat", op.Name})
}

// ReduceToRootLinear gathers every member's vector at the root directly and
// combines there — the centralized scheme, O(n) serialized messages into one
// image (collectLinear).
func ReduceToRootLinear[T any](v *team.View, root int, buf []T, op Op[T]) {
	v.Img.World().Stats().Count(trace.OpReduce)
	if v.NumImages() == 1 {
		return
	}
	st := GetState(v, Alg{"redto.lin", op.Name, tag[T]()}, 4)
	st.Next()
	collectLinear(st, 0, v.T.Ranks(), v.Rank, root, len(buf), buf, func(_ int, in []T) {
		op.Combine(buf, in)
		v.Img.MemWork(2 * pgas.ElemSize[T]() * len(buf))
	})
}

package coll

import (
	"math/bits"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// SubgroupAllreduceRD performs a recursive-doubling all-to-all reduction
// over an arbitrary subgroup of a team. group lists the participating team
// ranks; myIdx is the caller's index within group. buf is combined in place:
// on return every participant's buf holds the reduction of all
// participants' inputs.
//
// Non-power-of-two sizes use the standard folding: the trailing "extra"
// members first contribute their vector to a partner in the power-of-two
// core and receive the final result from it afterwards.
//
// The hierarchy-aware two-level reduction (internal/core) reuses this with
// group = the team's node leaders; the flat baseline uses the whole team.
func SubgroupAllreduceRD[T any](v *team.View, group []int, myIdx int, buf []T, op Op[T], alg Alg) {
	g := len(group)
	if g == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	nr := Rounds(FloorPow2(g))
	st := GetState(v, alg.With("rd", op.Name, tag[T]()), nr+2)
	st.Next()
	// Three boxes: the rd rounds land at every core member, a folded extra's
	// contribution at its core partner, and the result at the extra — each
	// role touches only its own.
	me := v.Img
	p2 := FloorPow2(g)
	extras := g - p2
	slotExtra, slotResult := nr, nr+1

	if myIdx >= p2 {
		// Fold in: ship to the core partner, then wait for the result.
		NewBox[T](st, "fold", n, 1).Put(group[myIdx-p2], 0, buf, slotExtra, pgas.ViaConduit)
		st.Arrivals(slotResult, 1)
		NewBox[T](st, "res", n, 1).Take(0, buf)
		return
	}
	if myIdx < extras {
		st.Arrivals(slotExtra, 1)
		op.Combine(buf, NewBox[T](st, "fold", n, 1).Landed(0, 0, n))
		me.MemWork(2 * es * n)
	}
	box := NewBox[T](st, "", n, nr)
	for k := 0; 1<<k < p2; k++ {
		box.Put(group[myIdx^1<<k], k, buf, k, pgas.ViaConduit)
		st.Arrivals(k, 1)
		op.Combine(buf, box.Landed(k, 0, n))
		me.MemWork(2 * es * n)
	}
	if myIdx < extras {
		NewBox[T](st, "res", n, 1).Put(group[myIdx+p2], 0, buf, slotResult, pgas.ViaConduit)
	}
}

// AllreduceRD is the flat recursive-doubling all-to-all reduction over the
// whole team through the conduit path — a standard baseline for co_sum and
// friends.
func AllreduceRD[T any](v *team.View, buf []T, op Op[T]) {
	v.Img.World().Stats().Count(trace.OpReduce)
	SubgroupAllreduceRD(v, v.T.Ranks(), v.Rank, buf, op, Alg{"red.flat"})
}

// AllreduceLinear gathers every vector at the team's first member, combines
// there, and ships the result back out — the centralized counterpart the
// paper's methodology discussion contrasts with distributed algorithms.
func AllreduceLinear[T any](v *team.View, buf []T, op Op[T]) {
	v.Img.World().Stats().Count(trace.OpReduce)
	n := len(buf)
	es := pgas.ElemSize[T]()
	sz := v.NumImages()
	if sz == 1 {
		return
	}
	st := GetState(v, Alg{"red.lin", op.Name, tag[T]()}, 2)
	st.Next()
	// Root inbox: one region per member, touched at the root only. Result
	// landing: one region at every other member.
	inbox := NewBox[T](st, "in", n, sz)
	res := NewBox[T](st, "res", n, 1)
	me := v.Img
	if v.Rank == 0 {
		st.Arrivals(0, sz-1)
		for r := 1; r < sz; r++ {
			op.Combine(buf, inbox.Landed(r, 0, n))
			me.MemWork(2 * es * n)
		}
		for r := 1; r < sz; r++ {
			res.Put(r, 0, buf, 1, pgas.ViaConduit)
		}
		return
	}
	inbox.Put(0, v.Rank, buf, 0, pgas.ViaConduit)
	st.Arrivals(1, 1)
	res.Take(0, buf)
}

// AllreduceTree reduces up a binomial tree to the first member and
// broadcasts the result back down the same tree. 2(n−1) vector messages
// with logarithmic depth.
func AllreduceTree[T any](v *team.View, buf []T, op Op[T]) {
	v.Img.World().Stats().Count(trace.OpReduce)
	n := len(buf)
	es := pgas.ElemSize[T]()
	sz := v.NumImages()
	if sz == 1 {
		return
	}
	nr := Rounds(sz)
	st := GetState(v, Alg{"red.tree", op.Name, tag[T]()}, nr+1)
	st.Next()
	// Parents land their children per tree edge; every member but the root
	// lands the result, in a box of its own (leaves touch no other).
	in := NewBox[T](st, "in", n, nr)
	res := NewBox[T](st, "res", n, 1)
	me := v.Img
	r := v.Rank
	nkids := binomialFanout(r, sz)
	// Gather: the edge-k child arrives on slot k, deepest first.
	for k := nkids - 1; k >= 0; k-- {
		st.Arrivals(k, 1)
		op.Combine(buf, in.Landed(k, 0, n))
		me.MemWork(2 * es * n)
	}
	if r != 0 {
		// My edge to the parent is my lowest set bit.
		edge := bits.TrailingZeros(uint(r))
		in.Put(r-1<<edge, edge, buf, edge, pgas.ViaConduit)
		st.Arrivals(nr, 1)
		res.Take(0, buf)
	}
	for k := range nkids {
		res.Put(r+1<<k, 0, buf, nr, pgas.ViaConduit)
	}
}

// AllreduceRing is the bandwidth-optimal ring all-reduce: a reduce-scatter
// pass followed by an all-gather pass, 2(n−1) steps of the ring over
// Segment's n/size pieces. An extension beyond the paper's baselines, included
// for the ablation bench. Falls back to recursive doubling when the vector is
// shorter than the team.
func AllreduceRing[T any](v *team.View, buf []T, op Op[T]) {
	v.Img.World().Stats().Count(trace.OpReduce)
	sz := v.NumImages()
	n := len(buf)
	es := pgas.ElemSize[T]()
	if sz == 1 {
		return
	}
	if n < sz {
		SubgroupAllreduceRD(v, v.T.Ranks(), v.Rank, buf, op, Alg{"red.ringfallback"})
		return
	}
	st := GetState(v, Alg{"red.ring", op.Name, tag[T]()}, 2*(sz-1))
	st.Next()
	box := NewBox[T](st, "", (n+sz-1)/sz, 2*(sz-1))
	me, r, next := v.Img, v.Rank, (v.Rank+1)%sz
	piece := func(i int) []T { p, _ := Segment(buf, i, sz); return p }
	// Reduce-scatter: the piece that lands is combined into the caller's
	// own, which leaves piece (r+1) mod sz complete at r.
	ring(st, 0, box, r, sz, next, piece, func(i, at int) {
		p := piece(i)
		op.Combine(p, box.Landed(at, 0, len(p)))
		me.MemWork(2 * es * len(p))
	})
	// All-gather: circulate the finished pieces, shifted by one.
	shifted := func(i int) []T { return piece((i + 1) % sz) }
	ring(st, sz-1, box, r, sz, next, shifted, func(i, at int) { box.Take(at, shifted(i)) })
}

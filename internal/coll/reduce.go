package coll

import (
	"fmt"
	"strconv"

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
	ep := st.Next()
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
		me.WaitFlagGE(st.Flags, me.Rank(), slotResult, ep)
		NewBox[T](st, "res", n, 1).Take(0, buf)
		return
	}
	if myIdx < extras {
		me.WaitFlagGE(st.Flags, me.Rank(), slotExtra, ep)
		op.Combine(buf, NewBox[T](st, "fold", n, 1).Region(0)[:n])
		me.MemWork(2 * es * n)
	}
	box := NewBox[T](st, "", n, nr)
	for k := 0; 1<<k < p2; k++ {
		box.Put(group[myIdx^1<<k], k, buf, k, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), k, ep)
		op.Combine(buf, box.Region(k)[:n])
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
	SubgroupAllreduceRD(v, TeamRanks(v), v.Rank, buf, op, Alg{"red.flat"})
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
	ep := st.Next()
	// Root inbox: one region per member, touched at the root only. Result
	// landing: one region at every other member.
	inbox := NewBox[T](st, "in", n, sz)
	res := NewBox[T](st, "res", n, 1)
	me := v.Img
	if v.Rank == 0 {
		me.WaitFlagGE(st.Flags, me.Rank(), 0, ep*int64(sz-1))
		for r := 1; r < sz; r++ {
			op.Combine(buf, inbox.Region(r)[:n])
			me.MemWork(2 * es * n)
		}
		for r := 1; r < sz; r++ {
			res.Put(r, 0, buf, 1, pgas.ViaConduit)
		}
		return
	}
	inbox.Put(0, v.Rank, buf, 0, pgas.ViaConduit)
	me.WaitFlagGE(st.Flags, me.Rank(), 1, ep)
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
	ep := st.Next()
	// Parents land their children per tree level; every member but the
	// root lands the result, in a box of its own (leaves touch no other).
	in := NewBox[T](st, "in", n, nr)
	res := NewBox[T](st, "res", n, 1)
	me := v.Img
	r := v.Rank
	kids := binomialChildren(r, sz)
	// Gather: children arrive on per-level slots, deepest first.
	for i := len(kids) - 1; i >= 0; i-- {
		me.WaitFlagGE(st.Flags, me.Rank(), i, ep)
		op.Combine(buf, in.Region(i)[:n])
		me.MemWork(2 * es * n)
	}
	if r != 0 {
		parent := r - (r & -r)
		// My slot at the parent is my position among its children.
		slot := childSlot(parent, r)
		in.Put(parent, slot, buf, slot, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), nr, ep)
		res.Take(0, buf)
	}
	for _, c := range kids {
		res.Put(c, 0, buf, nr, pgas.ViaConduit)
	}
}

// childSlot returns child's index within parent's binomial children list.
func childSlot(parent, child int) int {
	kids := binomialChildren(parent, child+1)
	for i, k := range kids {
		if k == child {
			return i
		}
	}
	panic(fmt.Sprintf("coll: %d is not a binomial child of %d", child, parent))
}

// AllreduceRing is the bandwidth-optimal ring all-reduce (reduce-scatter
// pass followed by an all-gather pass, 2(n−1) steps of n/size chunks). An
// extension beyond the paper's baselines, included for the ablation bench.
func AllreduceRing[T any](v *team.View, buf []T, op Op[T]) {
	v.Img.World().Stats().Count(trace.OpReduce)
	sz := v.NumImages()
	n := len(buf)
	es := pgas.ElemSize[T]()
	if sz == 1 {
		return
	}
	if n < sz {
		// Tiny vectors degenerate; fall back to recursive doubling.
		SubgroupAllreduceRD(v, TeamRanks(v), v.Rank, buf, op, Alg{"red.ringfallback"})
		return
	}
	steps := 2 * (sz - 1)
	st := GetState(v, Alg{"red.ring", op.Name, tag[T]()}, steps)
	ep := st.Next()
	chunk := (n + sz - 1) / sz
	// One inbox region per step: ring skew can reach sz−1 steps, so regions
	// cannot be shared between nearby steps.
	box := NewBox[T](st, "", chunk, steps)
	me := v.Img
	r := v.Rank
	next := (r + 1) % sz
	bounds := func(c int) (lo, hi int) {
		lo = c * chunk
		hi = lo + chunk
		if hi > n {
			hi = n
		}
		if lo > n {
			lo = n
		}
		return
	}
	// Reduce-scatter: in step s, send chunk (r-s) mod sz to the right,
	// combine incoming chunk (r-s-1) mod sz.
	for s := 0; s < sz-1; s++ {
		sendC := ((r-s)%sz + sz) % sz
		recvC := ((r-s-1)%sz + sz) % sz
		lo, hi := bounds(sendC)
		box.Put(next, s, buf[lo:hi], s, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), s, ep)
		rlo, rhi := bounds(recvC)
		op.Combine(buf[rlo:rhi], box.Region(s)[:rhi-rlo])
		me.MemWork(2 * es * (rhi - rlo))
	}
	// All-gather: circulate the finished chunks.
	for s := 0; s < sz-1; s++ {
		sendC := ((r+1-s)%sz + sz) % sz
		recvC := ((r-s)%sz + sz) % sz
		lo, hi := bounds(sendC)
		box.Put(next, sz-1+s, buf[lo:hi], sz-1+s, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), sz-1+s, ep)
		rlo, rhi := bounds(recvC)
		box.Take(sz-1+s, buf[rlo:rhi])
	}
}

// TeamRanks returns [0..size): the whole team as a subgroup. The slice is
// built once per team and shared by every member; callers must not modify
// it.
func TeamRanks(v *team.View) []int {
	memo := team.MemoKey{Kind: "coll:ranks"}
	if x := v.Cached(memo); x != nil {
		return x.([]int)
	}
	key := "coll:ranks:team" + strconv.FormatInt(v.T.ID(), 10)
	return v.Cache(memo, pgas.LookupOrCreate(v.Img.World(), key, func() interface{} {
		out := make([]int, v.T.Size())
		for i := range out {
			out[i] = i
		}
		return out
	})).([]int)
}

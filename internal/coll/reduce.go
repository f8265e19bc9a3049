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
	// Three boxes, per parity: the rd rounds land at every core member, a
	// folded extra's contribution at its core partner, and the result at
	// the extra — each role touches only its own.
	parity := int(ep % 2)
	me := v.Img
	global := func(idx int) int { return v.T.GlobalRank(group[idx]) }

	p2 := FloorPow2(g)
	extras := g - p2
	slotExtra, slotResult := nr, nr+1

	if myIdx >= p2 {
		// Fold in: ship to the core partner, then wait for the result.
		partner := myIdx - p2
		in, icap := Scratch[T](st, "fold", n, 2)
		pgas.PutThenNotify(me, in, global(partner), parity*icap, buf, st.Flags, slotExtra, 1, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), slotResult, ep)
		res, rcap := Scratch[T](st, "res", n, 2)
		copy(buf, pgas.Local(res, me)[parity*rcap:parity*rcap+n])
		me.MemWork(es * n)
		return
	}
	if myIdx < extras {
		me.WaitFlagGE(st.Flags, me.Rank(), slotExtra, ep)
		in, icap := Scratch[T](st, "fold", n, 2)
		op.Combine(buf, pgas.Local(in, me)[parity*icap:parity*icap+n])
		me.MemWork(2 * es * n)
	}
	co, cap_ := Scratch[T](st, "", n, 2*nr)
	region := func(k int) int { return (parity*nr + k) * cap_ }
	for k := 0; 1<<k < p2; k++ {
		partner := myIdx ^ 1<<k
		pgas.PutThenNotify(me, co, global(partner), region(k), buf, st.Flags, k, 1, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), k, ep)
		op.Combine(buf, pgas.Local(co, me)[region(k):region(k)+n])
		me.MemWork(2 * es * n)
	}
	if myIdx < extras {
		res, rcap := Scratch[T](st, "res", n, 2)
		pgas.PutThenNotify(me, res, global(myIdx+p2), parity*rcap, buf, st.Flags, slotResult, 1, pgas.ViaConduit)
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
	// Root inbox: one region per member per parity, touched at the root
	// only. Result landing: one region per parity at every other member.
	inbox, icap := Scratch[T](st, "in", n, 2*sz)
	res, rcap := Scratch[T](st, "res", n, 2)
	parity := int(ep % 2)
	root := v.T.GlobalRank(0)
	me := v.Img
	if v.Rank == 0 {
		me.WaitFlagGE(st.Flags, root, 0, ep*int64(sz-1))
		local := pgas.Local(inbox, me)
		for r := 1; r < sz; r++ {
			off := (parity*sz + r) * icap
			op.Combine(buf, local[off:off+n])
			me.MemWork(2 * es * n)
		}
		for r := 1; r < sz; r++ {
			pgas.PutThenNotify(me, res, v.T.GlobalRank(r), parity*rcap, buf, st.Flags, 1, 1, pgas.ViaConduit)
		}
		return
	}
	off := (parity*sz + v.Rank) * icap
	pgas.PutThenNotify(me, inbox, root, off, buf, st.Flags, 0, 1, pgas.ViaConduit)
	me.WaitFlagGE(st.Flags, me.Rank(), 1, ep)
	copy(buf, pgas.Local(res, me)[parity*rcap:parity*rcap+n])
	me.MemWork(es * n)
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
	co, cap_ := Scratch[T](st, "in", n, 2*nr)
	res, rcap := Scratch[T](st, "res", n, 2)
	parity := int(ep % 2)
	region := func(k int) int { return (parity*nr + k) * cap_ }
	me := v.Img
	r := v.Rank
	kids := binomialChildren(r, sz)
	// Gather: children arrive on per-level slots, deepest first.
	for i := len(kids) - 1; i >= 0; i-- {
		me.WaitFlagGE(st.Flags, me.Rank(), i, ep)
		op.Combine(buf, pgas.Local(co, me)[region(i):region(i)+n])
		me.MemWork(2 * es * n)
	}
	if r != 0 {
		parent := r - (r & -r)
		// My slot at the parent is my position among its children.
		slot := childSlot(parent, r)
		pgas.PutThenNotify(me, co, v.T.GlobalRank(parent), region(slot), buf, st.Flags, slot, 1, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), nr, ep)
		copy(buf, pgas.Local(res, me)[parity*rcap:parity*rcap+n])
		me.MemWork(es * n)
	}
	for _, c := range kids {
		pgas.PutThenNotify(me, res, v.T.GlobalRank(c), parity*rcap, buf, st.Flags, nr, 1, pgas.ViaConduit)
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
	// One inbox region per step per episode parity: ring skew can reach
	// sz−1 steps, so regions cannot be shared between nearby steps.
	co, cap_ := Scratch[T](st, "", chunk, 2*steps)
	parity := int(ep % 2)
	region := func(step int) int { return (parity*steps + step) * cap_ }
	me := v.Img
	r := v.Rank
	next := v.T.GlobalRank((r + 1) % sz)
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
		reg := region(s)
		pgas.PutThenNotify(me, co, next, reg, buf[lo:hi], st.Flags, s, 1, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), s, ep)
		rlo, rhi := bounds(recvC)
		op.Combine(buf[rlo:rhi], pgas.Local(co, me)[reg:reg+(rhi-rlo)])
		me.MemWork(2 * es * (rhi - rlo))
	}
	// All-gather: circulate the finished chunks.
	for s := 0; s < sz-1; s++ {
		sendC := ((r+1-s)%sz + sz) % sz
		recvC := ((r-s)%sz + sz) % sz
		lo, hi := bounds(sendC)
		reg := region(sz - 1 + s)
		pgas.PutThenNotify(me, co, next, reg, buf[lo:hi], st.Flags, sz-1+s, 1, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), sz-1+s, ep)
		rlo, rhi := bounds(recvC)
		copy(buf[rlo:rhi], pgas.Local(co, me)[reg:reg+(rhi-rlo)])
		me.MemWork(es * (rhi - rlo))
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

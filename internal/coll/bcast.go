package coll

import (
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// SubgroupBcastBinomial broadcasts buf from the rootIdx-th member of group
// (a list of team ranks) to all group members along a binomial tree. On
// return every participant's buf holds the root's data. The hierarchy-aware
// two-level broadcast reuses this with group = the team's node leaders.
//
// Broadcasts need flow control: unlike all-to-all collectives, nothing in
// the data flow stops a root from racing two episodes ahead and overwriting
// a landing region a slow receiver has not yet copied. The implementation
// uses the standard credit scheme: acknowledgements climb back up the tree
// on a parity-indexed slot (so consecutive episodes cannot be confused),
// the episode's root then stamps a monotone "done" epoch to every member,
// and a root may not inject episode e before done >= e−2 — guaranteeing the
// parity-e landing regions are free.
//
// Flag layout: slots 0-1 parity payload arrivals, slots 2-3 parity acks,
// slot 4 done stamps.
func SubgroupBcastBinomial[T any](v *team.View, group []int, myIdx, rootIdx int, buf []T, alg Alg) {
	g := len(group)
	if g == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	st := GetState(v, alg.With("bcast", tag[T]()), 5)
	ep := st.Next()
	co, cap_ := Scratch[T](st, "bcast", n, 2)
	parity := int(ep % 2)
	reg := parity * cap_
	paySlot := parity
	ackSlot := 2 + parity
	me := v.Img
	rel := (myIdx - rootIdx + g) % g // rank relative to the root
	global := func(relIdx int) int { return v.T.GlobalRank(group[(relIdx+rootIdx)%g]) }

	if rel == 0 {
		// Flow-control gate: landing regions of parity ep are known free
		// once episode ep−2 has fully completed.
		me.WaitFlagGE(st.Flags, me.Rank(), 4, ep-2)
	} else {
		st.Arrivals(paySlot, 1)
		copy(buf, pgas.Local(co, me)[reg:reg+n])
		me.MemWork(es * n)
	}
	// Forward to subtree children: highest distance first so the far half
	// of the tree starts as early as possible.
	nkids := 0
	for k := Rounds(g) - 1; k >= 0; k-- {
		if rel < 1<<k && rel+1<<k < g {
			pgas.PutThenNotify(me, co, global(rel+1<<k), reg, buf, st.Flags, paySlot, 1, pgas.ViaConduit)
			nkids++
		}
	}
	// Ack wave: wait for the subtree, then report to the parent (or, at
	// the root, stamp completion to everyone).
	if nkids > 0 {
		st.Arrivals(ackSlot, nkids)
	}
	if rel != 0 {
		parent := rel - FloorPow2(rel)
		me.NotifyAdd(st.Flags, global(parent), ackSlot, 1, pgas.ViaConduit)
		return
	}
	me.SetLocal(st.Flags, 4, ep)
	for i := 1; i < g; i++ {
		me.NotifySet(st.Flags, global(i), 4, ep, pgas.ViaConduit)
	}
}

// BcastBinomial is the flat binomial-tree one-to-all broadcast over the
// whole team (the baseline for co_broadcast). root is a team rank.
func BcastBinomial[T any](v *team.View, root int, buf []T) {
	v.Img.World().Stats().Count(trace.OpBroadcast)
	SubgroupBcastBinomial(v, TeamRanks(v), v.Rank, root, buf, Alg{"bc.flat"})
}

// BcastLinear has the root put the payload to every member directly —
// 2(n−1) serialized messages from one image, the centralized scheme. Flow
// control mirrors SubgroupBcastBinomial: parity ack slots converging
// directly at the episode root, a done-stamp wave, and an injection gate at
// done >= e−2.
func BcastLinear[T any](v *team.View, root int, buf []T) {
	v.Img.World().Stats().Count(trace.OpBroadcast)
	sz := v.NumImages()
	if sz == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	st := GetState(v, Alg{"bc.lin", tag[T]()}, 5)
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
			pgas.PutThenNotify(me, co, v.T.GlobalRank(r), reg, buf, st.Flags, paySlot, 1, pgas.ViaConduit)
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
	copy(buf, pgas.Local(co, me)[reg:reg+n])
	me.MemWork(es * n)
	me.NotifyAdd(st.Flags, v.T.GlobalRank(root), ackSlot, 1, pgas.ViaConduit)
}

// BcastScatterAllgather is the van de Geijn large-message broadcast: the
// root binomial-scatters n/size chunks, then a ring all-gather completes
// every copy. Bandwidth-optimal for payloads much larger than the team.
// Falls back to the binomial tree when the vector is shorter than the team.
func BcastScatterAllgather[T any](v *team.View, root int, buf []T) {
	v.Img.World().Stats().Count(trace.OpBroadcast)
	sz := v.NumImages()
	n := len(buf)
	es := pgas.ElemSize[T]()
	if sz == 1 {
		return
	}
	if n < sz {
		SubgroupBcastBinomial(v, TeamRanks(v), v.Rank, root, buf, Alg{"bc.sagfallback"})
		return
	}
	chunk := (n + sz - 1) / sz
	steps := sz - 1
	st := GetState(v, Alg{"bc.sag", tag[T]()}, 1+steps)
	ep := st.Next()
	// Per parity: the full vector (scatter target area), and one
	// chunk-sized region per all-gather step.
	co, cap_ := Scratch[T](st, "", n, 2)
	ring, rcap := Scratch[T](st, "ring", chunk, 2*steps)
	parity := int(ep % 2)
	base := parity * cap_
	me := v.Img
	rel := (v.Rank - root + sz) % sz
	global := func(relIdx int) int { return v.T.GlobalRank((relIdx + root) % sz) }
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
	// Binomial scatter: each internal node holds the chunks for its
	// subtree [rel, rel+2^k) and forwards the upper half.
	if rel != 0 {
		st.Arrivals(0, 1)
		// Received chunks [rel, rel+span) into the vector area; copy my
		// own chunk into buf.
		lo, hi := bounds(rel)
		copy(buf[lo:hi], pgas.Local(co, me)[base+lo:base+hi])
		me.MemWork(es * (hi - lo))
	} else {
		copy(pgas.Local(co, me)[base:base+n], buf)
		me.MemWork(es * n)
	}
	// This scatter tree uses the "low bits free" binomial shape (forward
	// when rel ≡ 0 mod 2^(k+1)) because its subtrees are contiguous chunk
	// ranges [child, child+2^k), which is what a scatter needs.
	for k := Rounds(sz) - 1; k >= 0; k-- {
		if rel%(1<<(k+1)) == 0 && rel+1<<k < sz {
			child := rel + 1<<k
			lastRel := child + 1<<k
			if lastRel > sz {
				lastRel = sz
			}
			lo, _ := bounds(child)
			_, hi := bounds(lastRel - 1)
			if hi > lo {
				src := pgas.Local(co, me)[base+lo : base+hi]
				pgas.PutThenNotify(me, co, global(child), base+lo, src, st.Flags, 0, 1, pgas.ViaConduit)
			} else {
				// The child's whole subtree falls past the vector end;
				// it still needs the release notification.
				me.NotifyAdd(st.Flags, global(child), 0, 1, pgas.ViaConduit)
			}
		}
	}
	// Ring all-gather over relative ranks.
	next := global((rel + 1) % sz)
	for s := 0; s < steps; s++ {
		sendC := ((rel-s)%sz + sz) % sz
		recvC := ((rel-s-1)%sz + sz) % sz
		lo, hi := bounds(sendC)
		reg := (parity*steps + s) * rcap
		if hi > lo {
			pgas.PutThenNotify(me, ring, next, reg, buf[lo:hi], st.Flags, 1+s, 1, pgas.ViaConduit)
		} else {
			me.NotifyAdd(st.Flags, next, 1+s, 1, pgas.ViaConduit)
		}
		me.WaitFlagGE(st.Flags, me.Rank(), 1+s, ep)
		rlo, rhi := bounds(recvC)
		if rhi > rlo {
			copy(buf[rlo:rhi], pgas.Local(ring, me)[reg:reg+(rhi-rlo)])
			me.MemWork(es * (rhi - rlo))
		}
	}
}

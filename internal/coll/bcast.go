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
	st := GetState(v, alg.With("bcast", tag[T]()), 5)
	ep := st.Next()
	box := NewBox[T](st, "bcast", len(buf), 1)
	parity := int(ep % 2)
	paySlot := parity
	ackSlot := 2 + parity
	rel := (myIdx - rootIdx + g) % g // rank relative to the root
	member := func(relIdx int) int { return group[(relIdx+rootIdx)%g] }

	if rel == 0 {
		st.Inject(4)
	} else {
		st.Arrivals(paySlot, 1)
		box.Take(0, buf)
	}
	// Forward to subtree children: highest distance first so the far half
	// of the tree starts as early as possible.
	nkids := 0
	for k := Rounds(g) - 1; k >= 0; k-- {
		if rel < 1<<k && rel+1<<k < g {
			box.Put(member(rel+1<<k), 0, buf, paySlot, pgas.ViaConduit)
			nkids++
		}
	}
	// Ack wave: wait for the subtree, then report to the parent (or, at
	// the root, stamp completion to everyone).
	if nkids > 0 {
		st.Arrivals(ackSlot, nkids)
	}
	if rel != 0 {
		parent := member(rel - FloorPow2(rel))
		v.Img.NotifyAdd(st.Flags, v.T.GlobalRank(parent), ackSlot, 1, pgas.ViaConduit)
		return
	}
	st.Publish(4, group, rootIdx, pgas.ViaConduit)
}

// BcastBinomial is the flat binomial-tree one-to-all broadcast over the
// whole team (the baseline for co_broadcast). root is a team rank.
func BcastBinomial[T any](v *team.View, root int, buf []T) {
	v.Img.World().Stats().Count(trace.OpBroadcast)
	SubgroupBcastBinomial(v, TeamRanks(v), v.Rank, root, buf, Alg{"bc.flat"})
}

// BcastLinear has the root put the payload to every member directly —
// 2(n−1) serialized messages from one image, the centralized scheme
// (deliverLinear with every member's block the whole payload).
func BcastLinear[T any](v *team.View, root int, buf []T) {
	v.Img.World().Stats().Count(trace.OpBroadcast)
	if v.NumImages() > 1 {
		deliverLinear(v, root, Alg{"bc.lin", tag[T]()}, buf, 0, buf)
	}
}

// deliverLinear is the centralized one-to-all scheme of BcastLinear and
// ScatterLinear: the root puts member r's block — send[r*stride:] — into r's
// one landing region, len(recv) elements; r copies it into recv. Flow control
// mirrors SubgroupBcastBinomial: parity ack slots converging directly at the
// episode root, a done-stamp wave, and an injection gate (roots vary between
// episodes, so completion must be published to every potential root).
//
// Flag layout: slots 0-1 parity payload arrivals, slots 2-3 parity acks,
// slot 4 done stamps.
func deliverLinear[T any](v *team.View, root int, alg Alg, send []T, stride int, recv []T) {
	n := len(recv)
	st := GetState(v, alg, 5)
	ep := st.Next()
	box := NewBox[T](st, "", n, 1)
	parity := int(ep % 2)
	paySlot := parity
	ackSlot := 2 + parity
	if v.Rank != root {
		box.Land(paySlot, recv, root, ackSlot, pgas.ViaConduit)
		return
	}
	st.Inject(4)
	for r := 0; r < v.NumImages(); r++ {
		if r != root {
			box.Put(r, 0, send[r*stride:r*stride+n], paySlot, pgas.ViaConduit)
		}
	}
	st.Arrivals(ackSlot, v.NumImages()-1)
	st.Publish(4, TeamRanks(v), 0, pgas.ViaConduit)
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
	// The full vector (scatter target area), and one chunk-sized region per
	// all-gather step.
	vec := NewBox[T](st, "", n, 1)
	ring := NewBox[T](st, "ring", chunk, steps)
	me := v.Img
	rel := (v.Rank - root + sz) % sz
	member := func(relIdx int) int { return (relIdx + root) % sz }
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
		copy(buf[lo:hi], vec.Region(0)[lo:hi])
		me.MemWork(es * (hi - lo))
	} else {
		copy(vec.Region(0)[:n], buf)
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
				vec.PutAt(member(child), 0, lo, vec.Region(0)[lo:hi], 0, pgas.ViaConduit)
			} else {
				// The child's whole subtree falls past the vector end;
				// it still needs the release notification.
				me.NotifyAdd(st.Flags, v.T.GlobalRank(member(child)), 0, 1, pgas.ViaConduit)
			}
		}
	}
	// Ring all-gather over relative ranks.
	next := member((rel + 1) % sz)
	for s := 0; s < steps; s++ {
		sendC := ((rel-s)%sz + sz) % sz
		recvC := ((rel-s-1)%sz + sz) % sz
		lo, hi := bounds(sendC)
		if hi > lo {
			ring.Put(next, s, buf[lo:hi], 1+s, pgas.ViaConduit)
		} else {
			me.NotifyAdd(st.Flags, v.T.GlobalRank(next), 1+s, 1, pgas.ViaConduit)
		}
		me.WaitFlagGE(st.Flags, me.Rank(), 1+s, ep)
		if rlo, rhi := bounds(recvC); rhi > rlo {
			ring.Take(s, buf[rlo:rhi])
		}
	}
}

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
// The payload travels in segs segments (Segment's cut of buf; one segment is
// the whole payload), pipelined down the tree: a participant forwards each
// segment to its children as soon as it has landed, while the segments behind
// it are still on their way. Every segment has its own arrival slot, so no
// wait depends on the order in which two segments land.
//
// Broadcasts need flow control: unlike all-to-all collectives, nothing in
// the data flow stops a root from racing two episodes ahead and overwriting
// a landing region a slow receiver has not yet copied. The implementation
// uses the standard credit scheme: acknowledgements climb back up the tree
// on a parity-indexed slot (so consecutive episodes cannot be confused) once
// a participant holds the whole payload, the episode's root then stamps a
// monotone "done" epoch to every member, and a root may not inject episode e
// before done >= e−2 — guaranteeing the parity-e landing regions are free.
//
// Flag layout, for a state whose episodes cut their payload into at most
// maxSegs segments: slots 2s and 2s+1 parity arrivals of segment s, slots
// 2·maxSegs and 2·maxSegs+1 parity acks, slot 2·maxSegs+2 done stamps (with
// maxSegs = 1: 0-1 payload, 2-3 acks, 4 done).
//
// ready and forwarded, when not nil, are the per-segment hooks. ready(s) runs
// at the root just before it forwards segment s: a caller whose payload
// reaches the root in pieces lands segment s in buf there. forwarded(s) runs
// once buf holds segment s and the participant owes the tree nothing for it
// but waits: after forwarding it to its children — or, at a leaf, on its last
// segment, after its own ack — so a caller's work on each segment overlaps
// the rest of the tree.
func SubgroupBcastBinomial[T any](v *team.View, group []int, myIdx, rootIdx int, buf []T, alg Alg, segs, maxSegs int, ready, forwarded func(s int)) {
	g := len(group)
	if g == 1 {
		for s := range segs {
			if ready != nil {
				ready(s)
			}
			if forwarded != nil {
				forwarded(s)
			}
		}
		return
	}
	st := GetState(v, alg.With("bcast", tag[T]()), 2*maxSegs+3)
	st.Next()
	box := NewBox[T](st, "bcast", len(buf), 1)
	parity := st.parity()
	ackSlot, doneSlot := 2*maxSegs+parity, 2*maxSegs+2
	rel := (myIdx - rootIdx + g) % g // rank relative to the root
	member := func(relIdx int) int { return group[(relIdx+rootIdx)%g] }
	nkids := 0
	for k := Rounds(g) - 1; k >= 0; k-- {
		if rel < 1<<k && rel+1<<k < g {
			nkids++
		}
	}
	parent := member(rel - FloorPow2(rel)) // the root's own entry is unused
	for s := range segs {
		seg, off := Segment(buf, s, segs)
		paySlot := 2*s + parity
		if rel == 0 {
			if ready != nil {
				ready(s)
			}
			if s == 0 {
				st.Inject(doneSlot)
			}
		} else {
			st.Arrivals(paySlot, 1)
			box.TakeAt(0, off, seg)
		}
		// Forward to subtree children, highest distance first. In this tree
		// a child's own children lie at still larger distances, so the
		// farthest child roots the smallest subtree and the deepest one
		// starts last (an open question in ROADMAP item 6).
		for k := Rounds(g) - 1; k >= 0; k-- {
			if rel < 1<<k && rel+1<<k < g {
				box.PutAt(member(rel+1<<k), 0, off, seg, paySlot, pgas.ViaConduit)
			}
		}
		if nkids == 0 && s == segs-1 { // a leaf holds the whole payload: ack it
			st.Notify(parent, ackSlot, pgas.ViaConduit)
		}
		if forwarded != nil {
			forwarded(s)
		}
	}
	// Ack wave: wait for the subtree, then report to the parent (or, at
	// the root, stamp completion to everyone).
	if nkids == 0 {
		return
	}
	st.Arrivals(ackSlot, nkids)
	if rel != 0 {
		st.Notify(parent, ackSlot, pgas.ViaConduit)
		return
	}
	st.Publish(doneSlot, group, rootIdx, pgas.ViaConduit)
}

// BcastBinomial is the flat binomial-tree one-to-all broadcast over the
// whole team (the baseline for co_broadcast). root is a team rank.
func BcastBinomial[T any](v *team.View, root int, buf []T) {
	v.Img.World().Stats().Count(trace.OpBroadcast)
	SubgroupBcastBinomial(v, v.T.Ranks(), v.Rank, root, buf, Alg{"bc.flat"}, 1, 1, nil, nil)
}

// BcastLinear has the root put the payload to every member directly —
// 2(n−1) serialized messages from one image, the centralized scheme: the
// linear scatter whose every member speaks for the one block of the payload,
// team rank 0's of send = buf.
func BcastLinear[T any](v *team.View, root int, buf []T) {
	v.Img.World().Stats().Count(trace.OpBroadcast)
	if v.NumImages() > 1 {
		ranks := v.T.Ranks()
		scatterFlat(v, root, Alg{"bc.lin", tag[T]()}, false, func(int) []int { return ranks[:1] }, buf, buf)
	}
}

// BcastScatterAllgather is the van de Geijn large-message broadcast: the
// root binomial-scatters Segment's n/size pieces, then the ring all-gathers
// them over ranks relative to the root. Bandwidth-optimal for payloads much
// larger than the team. Falls back to the binomial tree when the vector is
// shorter than the team, so no piece is empty.
func BcastScatterAllgather[T any](v *team.View, root int, buf []T) {
	v.Img.World().Stats().Count(trace.OpBroadcast)
	sz := v.NumImages()
	n := len(buf)
	if sz == 1 {
		return
	}
	if n < sz {
		SubgroupBcastBinomial(v, v.T.Ranks(), v.Rank, root, buf, Alg{"bc.sagfallback"}, 1, 1, nil, nil)
		return
	}
	steps := sz - 1
	st := GetState(v, Alg{"bc.sag", tag[T]()}, steps+1)
	st.Next()
	// The full vector (the scatter's landing area), and one piece-sized
	// region per ring step.
	vec := NewBox[T](st, "", n, 1)
	ringBox := NewBox[T](st, "ring", (n+sz-1)/sz, steps)
	rel := (v.Rank - root + sz) % sz
	member := func(relIdx int) int { return (relIdx + root) % sz }
	piece := func(c int) []T { p, _ := Segment(buf, c, sz); return p }
	// Binomial scatter on slot steps: a member lands the pieces of its
	// subtree [rel, rel+2^k) and keeps its own.
	if rel != 0 {
		st.Arrivals(steps, 1)
		p, off := Segment(buf, rel, sz)
		vec.TakeAt(0, off, p)
	} else {
		copy(vec.Region(0)[:n], buf)
		v.Img.MemWork(pgas.ElemSize[T]() * n)
	}
	// The "low bits free" binomial shape: the edge-k child's subtree is the
	// contiguous piece range [child, child+2^k), which is what a scatter
	// needs: elements [child·n/sz, (child+2^k)·n/sz) in Segment's cut.
	// Farthest child first.
	for k := binomialFanout(rel, sz) - 1; k >= 0; k-- {
		child := rel + 1<<k
		lo, hi := child*n/sz, min(child+1<<k, sz)*n/sz
		vec.PutAt(member(child), 0, lo, vec.Landed(0, lo, hi-lo), steps, pgas.ViaConduit)
	}
	ring(st, 0, ringBox, rel, sz, member(rel+1), piece, func(c, at int) { ringBox.Take(at, piece(c)) })
}

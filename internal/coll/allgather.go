package coll

import (
	"fmt"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// AllgatherOwn is the entry of every allgather: it checks out against the
// team's size and places the caller's own block, uncharged. It reports
// whether there is anyone else to hear from.
func AllgatherOwn[T any](v *team.View, mine, out []T) bool {
	sz, n := v.NumImages(), len(mine)
	if len(out) < sz*n {
		panic(fmt.Sprintf("coll: allgather out %d < %d", len(out), sz*n))
	}
	v.Img.World().Stats().Count(trace.OpReduce)
	copy(out[v.Rank*n:], mine)
	return sz > 1
}

// AllgatherRing gathers every member's mine vector into out on every
// member, ordered by team rank (out must hold NumImages()*len(mine)
// elements): the ring pass with the members' vectors as its pieces, n−1
// steps, each member forwarding the block it received in the previous step.
// This is the communication pattern behind MPI_Allgather's large-message
// path.
func AllgatherRing[T any](v *team.View, mine, out []T) {
	if !AllgatherOwn(v, mine, out) {
		return
	}
	sz, n := v.NumImages(), len(mine)
	st := GetState(v, Alg{"ag.ring", tag[T]()}, sz-1)
	st.Next()
	box := NewBox[T](st, "", n, sz-1)
	piece := func(i int) []T { return out[i*n : i*n+n] }
	ring(st, 0, box, v.Rank, sz, (v.Rank+1)%sz, piece, func(i, at int) { box.Take(at, piece(i)) })
}

// ring is the ring pass (Thakur, Rabenseifner and Gropp 2005) of the g
// participants 0..g−1, the caller being me and its successor team rank next:
// g−1 lock-step steps, in step s of which the caller puts piece((me−s) mod g)
// into region base+s of its successor's box, on slot base+s, waits for its
// predecessor's put on the same slot and hands land the piece index
// (me−s−1) mod g and the region the piece landed in. Every step has a region
// and a slot of its own: skew around the ring can reach g−1 steps, so no two
// steps may share one. The caller has claimed st's episode; box has
// base+g−1 regions, each as large as the largest piece.
func ring[T any](st *State, base int, box Box[T], me, g, next int, piece func(i int) []T, land func(i, at int)) {
	for s := 0; s < g-1; s++ {
		box.Put(next, base+s, piece((me-s+g)%g), base+s, pgas.ViaConduit)
		st.Arrivals(base+s, 1)
		land((me-s-1+g)%g, base+s)
	}
}

// SubgroupAllgatherBruck is the doubling allgather (Bruck, Ho, Kipnis, Upfal,
// Weathersby 1997, without the final rotation: blocks keep their absolute
// places) among an arbitrary subgroup of a team, each participant speaking for
// a block of team ranks: ceil(log2 g) rounds, in round k a participant sends
// the min(2^k, g−2^k) blocks it has assembled so far (cyclically, from its own
// on) to the participant 2^k positions below it. Latency-optimal for small
// blocks — the counterpart of the ring's bandwidth optimality.
//
// group lists the participating team ranks, myIdx is the caller's index within
// it and block(i) the team ranks participant i speaks for, at most maxBlock of
// them. vec is the caller's assembly area — the n elements of team rank r at
// r·stride, the caller's own block already in place — and holds every
// participant's block on return. A message is a run of whole blocks packed
// member after member; round k's lands in its own regions of box, which has
// (g−1)·maxBlock regions of n elements (the rounds lie back to back from
// region (2^k−1)·maxBlock on), so a fast neighbor running ahead can never
// clobber an unread round. Round k's flag is slot base+k of st, whose episode
// the caller has claimed, on the participants' rows only: an image of the team
// outside group may use those slots of its own row for something else.
//
// delivered, when not nil, is called once per round k, as soon as the round's
// blocks are in vec: participants first, first+1, … (mod g), count of them —
// what lets a caller forward each block while the next rounds are on the wire.
func SubgroupAllgatherBruck[T any](st *State, base int, box Box[T], group []int, myIdx int, block func(i int) []int, maxBlock int, vec []T, stride, n int, delivered func(k, first, count int)) {
	g := len(group)
	me := st.v.Img
	es := pgas.ElemSize[T]()
	// move copies count blocks, from participant first on, between vec and a
	// packed run, charges the copy and returns the run's length.
	move := func(run []T, first, count int, unpack bool) int {
		at := 0
		for i := 0; i < count; i++ {
			for _, r := range block((first + i) % g) {
				if unpack {
					copy(vec[r*stride:], run[at:at+n])
				} else {
					copy(run[at:], vec[r*stride:r*stride+n])
				}
				at += n
			}
		}
		me.MemWork(es * at)
		return at
	}
	// One staging buffer serves every round: a put captures its payload at
	// issue, and no round ships more than half the blocks.
	staging := Temp[T](st, "pack", g/2*maxBlock*n)
	for k, have := 0, 1; have < g; k++ {
		count := min(have, g-have) // the receiver needs no more
		at := (1<<k - 1) * maxBlock
		box.Put(group[(myIdx-1<<k+g)%g], at, staging[:move(staging, myIdx, count, false)], base+k, pgas.ViaConduit)
		st.Arrivals(base+k, 1)
		move(box.Region(at), myIdx+1<<k, count, true)
		if delivered != nil {
			delivered(k, myIdx+1<<k, count)
		}
		have += count
	}
}

// AllgatherBruck is SubgroupAllgatherBruck over the whole team, every member
// speaking for itself (out must hold NumImages()*len(mine) elements).
func AllgatherBruck[T any](v *team.View, mine, out []T) {
	if !AllgatherOwn(v, mine, out) {
		return
	}
	sz, n := v.NumImages(), len(mine)
	st := GetState(v, Alg{"ag.bruck", tag[T]()}, Rounds(sz))
	st.Next()
	ranks := v.T.Ranks()
	SubgroupAllgatherBruck(st, 0, NewBox[T](st, "", n, sz-1), ranks, v.Rank,
		func(i int) []int { return ranks[i : i+1] }, 1, out, n, n, nil)
}

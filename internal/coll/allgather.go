package coll

import (
	"fmt"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// AllgatherRing gathers every member's mine vector into out on every
// member, ordered by team rank (out must hold NumImages()*len(mine)
// elements) — the ring algorithm: n−1 steps, each member forwarding the
// block it received in the previous step. This is the communication pattern
// behind MPI_Allgather's large-message path and the cost model used for
// team formation.
//
// Like the ring all-reduce, skew around the ring can reach n−1 steps, so
// every step gets its own parity-indexed landing region.
func AllgatherRing[T any](v *team.View, mine, out []T) {
	sz := v.NumImages()
	n := len(mine)
	if len(out) < sz*n {
		panic(fmt.Sprintf("coll: allgather out %d < %d", len(out), sz*n))
	}
	v.Img.World().Stats().Count(trace.OpReduce)
	copy(out[v.Rank*n:], mine)
	if sz == 1 {
		return
	}
	steps := sz - 1
	st := GetState(v, Alg{"ag.ring", tag[T]()}, steps)
	ep := st.Next()
	box := NewBox[T](st, "", n, steps)
	me := v.Img
	r := v.Rank
	for s := 0; s < steps; s++ {
		sendB := ((r-s)%sz + sz) % sz
		recvB := ((r-s-1)%sz + sz) % sz
		box.Put((r+1)%sz, s, out[sendB*n:sendB*n+n], s, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), s, ep)
		box.Take(s, out[recvB*n:recvB*n+n])
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
// clobber an unread round. The round flags are slots base.. of st, whose
// episode ep the caller has claimed.
func SubgroupAllgatherBruck[T any](v *team.View, st *State, base int, box Box[T], group []int, myIdx int, block func(i int) []int, maxBlock int, vec []T, stride, n int, ep int64) {
	g := len(group)
	me := v.Img
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
		me.WaitFlagGE(st.Flags, me.Rank(), base+k, ep)
		move(box.Region(at), myIdx+1<<k, count, true)
		have += count
	}
}

// AllgatherBruck is SubgroupAllgatherBruck over the whole team, every member
// speaking for itself (out must hold NumImages()*len(mine) elements).
func AllgatherBruck[T any](v *team.View, mine, out []T) {
	sz := v.NumImages()
	n := len(mine)
	if len(out) < sz*n {
		panic(fmt.Sprintf("coll: allgather out %d < %d", len(out), sz*n))
	}
	v.Img.World().Stats().Count(trace.OpReduce)
	copy(out[v.Rank*n:], mine)
	if sz == 1 {
		return
	}
	st := GetState(v, Alg{"ag.bruck", tag[T]()}, Rounds(sz))
	ep := st.Next()
	ranks := TeamRanks(v)
	SubgroupAllgatherBruck(v, st, 0, NewBox[T](st, "", n, sz-1), ranks, v.Rank,
		func(i int) []int { return ranks[i : i+1] }, 1, out, n, n, ep)
}

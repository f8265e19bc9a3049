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

// AllgatherBruck is the doubling allgather (Bruck's algorithm without the
// final rotation, expressed over absolute ranks): ceil(log2 n) rounds, in
// round k each member sends the 2^k blocks it has assembled so far to the
// member 2^k below it. Latency-optimal for small blocks — the counterpart of
// the ring's bandwidth optimality.
//
// Round r's transfer lands in its own parity-indexed region, so a fast
// neighbor running ahead can never clobber an unread round.
func AllgatherBruck[T any](v *team.View, mine, out []T) {
	sz := v.NumImages()
	n := len(mine)
	es := pgas.ElemSize[T]()
	if len(out) < sz*n {
		panic(fmt.Sprintf("coll: allgather out %d < %d", len(out), sz*n))
	}
	v.Img.World().Stats().Count(trace.OpReduce)
	copy(out[v.Rank*n:], mine)
	if sz == 1 {
		return
	}
	nr := Rounds(sz)
	st := GetState(v, Alg{"ag.bruck", tag[T]()}, nr)
	ep := st.Next()
	// Round k lands min(2^k, sz−2^k) blocks; lay rounds out back to back:
	// round k starts at region 2^k−1, and the last one ends sz−1 regions
	// in — every block but my own.
	box := NewBox[T](st, "", n, sz-1)
	me := v.Img
	r := v.Rank
	// have counts the contiguous (cyclic, starting at my own rank) blocks
	// assembled so far.
	have := 1
	// One staging buffer serves every round: a put captures its payload at
	// issue, and no round ships more than half the team's blocks.
	staging := Temp[T](st, "pack", sz/2*n)
	for k := 0; 1<<k < sz; k++ {
		dst := ((r-1<<k)%sz + sz) % sz
		send := have
		if send > sz-have { // the receiver only needs sz-have more blocks
			send = sz - have
		}
		// Pack my first `send` blocks (cyclic from my rank) into the
		// round-k region at dst.
		pack := staging[:send*n]
		for i := 0; i < send; i++ {
			b := (r + i) % sz
			copy(pack[i*n:(i+1)*n], out[b*n:b*n+n])
		}
		me.MemWork(es * len(pack))
		box.Put(dst, 1<<k-1, pack, k, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), k, ep)
		// Unpack what arrived: the sender was (r+2^k) mod sz, its blocks
		// start at its rank.
		src := (r + 1<<k) % sz
		recv := have
		if recv > sz-have {
			recv = sz - have
		}
		landed := box.Region(1<<k - 1)
		for i := 0; i < recv; i++ {
			b := (src + i) % sz
			copy(out[b*n:b*n+n], landed[i*n:(i+1)*n])
		}
		me.MemWork(es * recv * n)
		have += recv
	}
}

package coll

import (
	"fmt"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// AlltoallBlock validates the buffer lengths of every all-to-all and returns
// the per-pair block size: send and recv both hold NumImages() blocks of n
// elements, send block j destined to team rank j, recv block i arriving from
// team rank i.
func AlltoallBlock[T any](v *team.View, send, recv []T) int {
	sz := v.NumImages()
	if len(send)%sz != 0 {
		panic(fmt.Sprintf("coll: alltoall send %d not a multiple of team size %d", len(send), sz))
	}
	n := len(send) / sz
	if len(recv) < sz*n {
		panic(fmt.Sprintf("coll: alltoall recv %d < %d", len(recv), sz*n))
	}
	return n
}

// AlltoallPairwise is the pairwise-exchange personalized all-to-all: n−1
// steps, in step s each member sends its block for rank (r+s) and receives
// the block from rank (r−s) — every pair exchanges exactly once, the
// bandwidth-optimal large-message schedule (the pattern behind
// MPI_Alltoall's long-message path and distributed transposes).
//
// Each step owns a parity-indexed landing region. Cross-episode safety
// needs no explicit credits: before a writer starts episode e+2 of step s
// it completed episode e+1, whose step (size−s) waited on a message this
// image only sends after fully completing episode e — by which point the
// region being overwritten was consumed.
func AlltoallPairwise[T any](v *team.View, send, recv []T) {
	sz := v.NumImages()
	n := AlltoallBlock(v, send, recv)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpReduce)
	copy(recv[v.Rank*n:v.Rank*n+n], send[v.Rank*n:v.Rank*n+n])
	if sz == 1 {
		return
	}
	v.Img.MemWork(es * n)
	steps := sz - 1
	st := GetState(v, Alg{"a2a.pw", tag[T]()}, steps)
	ep := st.Next()
	box := NewBox[T](st, "", n, steps)
	me := v.Img
	r := v.Rank
	for s := 1; s <= steps; s++ {
		dst := (r + s) % sz
		src := (r - s + sz) % sz
		box.Put(dst, s-1, send[dst*n:dst*n+n], s-1, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), s-1, ep)
		box.Take(s-1, recv[src*n:src*n+n])
	}
}

// AlltoallBruck is the log-step personalized all-to-all (Bruck's
// algorithm): a local rotation brings block j of the send vector to tmp
// position (j−rank), then ceil(log2 n) rounds in which every member ships
// all tmp blocks whose index has bit k set to the member 2^k above it, and
// a final rotation restores source order. Each block travels popcount
// hops, but only log n messages leave each member — latency-optimal for
// small blocks, the counterpart of the pairwise exchange's bandwidth
// optimality.
//
// Unlike the pairwise exchange, the hop graph gives a slow member no
// transitive backpressure on the images writing its landing regions, so
// every step carries an explicit parity credit: the receiver acks after
// unpacking and a sender gates its next same-parity step-k pack on the
// previous ack.
//
// Flag layout: slots [0, rounds) step arrivals; slot rounds+2·k+parity the
// step-k credit.
func AlltoallBruck[T any](v *team.View, send, recv []T) {
	sz := v.NumImages()
	n := AlltoallBlock(v, send, recv)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpReduce)
	if sz == 1 {
		copy(recv, send[:n])
		return
	}
	nr := Rounds(sz)
	st := GetState(v, Alg{"a2a.bruck", tag[T]()}, 3*nr)
	ep := st.Next()
	// Round k exchanges the blocks whose index has bit k set; rounds are laid
	// out back to back, sized exactly: round k starts at region off[k].
	off := Temp[int](st, "off", nr)
	total := 0
	for k := range off {
		off[k] = total
		for j := 1; j < sz; j++ {
			if j>>k&1 == 1 {
				total++
			}
		}
	}
	box := NewBox[T](st, "", n, total)
	parity := int(ep % 2)
	me := v.Img
	r := v.Rank

	// Phase 1: local rotation — tmp block j is my block for rank (r+j).
	tmp := Temp[T](st, "rot", sz*n)
	for j := 0; j < sz; j++ {
		b := (r + j) % sz
		copy(tmp[j*n:(j+1)*n], send[b*n:b*n+n])
	}
	me.MemWork(es * sz * n)
	// Phase 2: doubling rounds. One staging buffer serves every round: a
	// put captures its payload at issue, and no round ships more than half
	// the team's blocks.
	pack := Temp[T](st, "pack", sz/2*n)
	for k := 0; k < nr; k++ {
		dst := (r + 1<<k) % sz
		src := (r - 1<<k + sz) % sz
		ackSlot := nr + 2*k + parity
		pack = pack[:0]
		for j := 1; j < sz; j++ {
			if j>>k&1 == 1 {
				pack = append(pack, tmp[j*n:(j+1)*n]...)
			}
		}
		me.MemWork(es * len(pack))
		st.Gate(ackSlot, 1)
		box.Put(dst, off[k], pack, k, pgas.ViaConduit)
		me.WaitFlagGE(st.Flags, me.Rank(), k, ep)
		landed := box.Region(off[k])
		i := 0
		for j := 1; j < sz; j++ {
			if j>>k&1 == 1 {
				copy(tmp[j*n:(j+1)*n], landed[i*n:(i+1)*n])
				i++
			}
		}
		me.MemWork(es * i * n)
		me.NotifyAdd(st.Flags, v.T.GlobalRank(src), ackSlot, 1, pgas.ViaConduit)
	}
	// Phase 3: final rotation — tmp position j carries the block from
	// source (r−j).
	for j := 0; j < sz; j++ {
		b := (r - j + sz) % sz
		copy(recv[b*n:b*n+n], tmp[j*n:(j+1)*n])
	}
	me.MemWork(es * sz * n)
}

package core

import (
	"fmt"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// groupPos returns rank's index within its (ascending) node group.
func groupPos(group []int, rank int) int {
	for i, r := range group {
		if r == rank {
			return i
		}
	}
	panic(fmt.Sprintf("core: rank %d not in group %v", rank, group))
}

// Flag slots of the two-level scatter: parity pack arrivals at a leader
// (from the root), parity block arrivals at a member (from its leader),
// parity leader acks at the root, parity member acks at a leader, and the
// done stamp every potential future root gates injection on.
const (
	sc2PackSlot  = 0 // +parity
	sc2BlockSlot = 2
	sc2RootAck   = 4
	sc2MemberAck = 6
	sc2Done      = 8
	sc2Slots     = 9
)

// ScatterTwoLevel distributes per-member blocks from team rank root with the
// paper's two-level methodology: the root packs one *node block* per
// intranode set (the members' blocks, contiguous in group order) and ships
// it to that node's leader — one inter-node message per node instead of one
// per image — and each leader fans the blocks out to its intranode set over
// shared memory. send is significant only at the root and must hold
// NumImages()*len(recv) elements there.
//
// Flow control mirrors ScatterLinear: roots vary between episodes, so a
// done-stamp wave published by each episode's root (after every leader acked
// consuming its pack) gates the next same-parity root's injection, member
// landing regions are guarded by member→leader acks, and all arrival waits
// count exactly (State.Arrivals) because each image's role depends on the root.
func ScatterTwoLevel[T any](v *team.View, root int, send, recv []T) {
	t := v.T
	sz := t.Size()
	n := len(recv)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpBroadcast)
	if v.Rank == root {
		if len(send) < sz*n {
			panic(fmt.Sprintf("core: scatter send %d < %d", len(send), sz*n))
		}
		copy(recv, send[root*n:root*n+n])
		v.Img.MemWork(es * n)
	}
	if sz == 1 {
		return
	}
	st := coll.GetState(v, coll.Alg{"sc2", pgas.TypeName[T]()}, sc2Slots)
	ep := st.Next()
	parity := int(ep % 2)
	// Two boxes, per parity: a leader's pack landing area (MaxNodeGroup
	// blocks, written by the episode root) and a member's block landing
	// region (written by the image's node leader).
	packs, pcap := coll.Scratch[T](st, "pack", n, 2*t.MaxNodeGroup())
	blocks, bcap := coll.Scratch[T](st, "blk", n, 2)
	packBase := parity * t.MaxNodeGroup() * pcap
	blockOff := parity * bcap
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	group := t.NodeGroup(t.GroupOf(v.Rank))
	leaders := t.Leaders()

	if v.Rank == root {
		// Injection gate: the pack regions this episode overwrites were last
		// written two same-parity episodes ago, possibly by a different
		// root; only the done stamp proves they were consumed.
		me.WaitFlagGE(st.Flags, me.Rank(), sc2Done, ep-2)
		sent := 0
		// One staging buffer serves every pack: a put captures its payload
		// at issue.
		staging := coll.Temp[T](st, "pack", t.MaxNodeGroup()*n)
		for gi, l := range leaders {
			if l == root {
				continue
			}
			grp := t.NodeGroup(gi)
			pack := staging[:len(grp)*n]
			for i, r := range grp {
				copy(pack[i*n:(i+1)*n], send[r*n:r*n+n])
			}
			me.MemWork(es * len(pack))
			pgas.PutThenNotify(me, packs, t.GlobalRank(l), packBase, pack, st.Flags, sc2PackSlot+parity, 1, pgas.ViaAuto)
			sent++
		}
		if v.Rank == leader {
			// A root that leads its node fans out straight from send.
			scatterFanOut(v, st, blocks, blockOff, parity, root, group, es, n,
				func(i, r int) []T { return send[r*n : r*n+n] })
		}
		if sent > 0 {
			st.Arrivals(sc2RootAck+parity, sent)
		}
		// Publish completion to every potential future root.
		me.SetLocal(st.Flags, sc2Done, ep)
		for r := 0; r < sz; r++ {
			if r != root {
				me.NotifySet(st.Flags, t.GlobalRank(r), sc2Done, ep, pgas.ViaAuto)
			}
		}
		return
	}
	if v.Rank == leader {
		// Receive the root's node block, keep my slice, fan the rest out
		// over shared memory, then ack the root (my pack region is free the
		// moment the fan-out puts are issued — puts capture data at issue).
		st.Arrivals(sc2PackSlot+parity, 1)
		local := pgas.Local(packs, me)
		pos := groupPos(group, v.Rank)
		copy(recv, local[packBase+pos*n:packBase+pos*n+n])
		me.MemWork(es * n)
		scatterFanOut(v, st, blocks, blockOff, parity, root, group, es, n,
			func(i, r int) []T { return local[packBase+i*n : packBase+(i+1)*n] })
		me.NotifyAdd(st.Flags, t.GlobalRank(root), sc2RootAck+parity, 1, pgas.ViaAuto)
		return
	}
	// Member: exactly one block arrives, from my node leader, over shared
	// memory; ack it so the leader may reuse my landing region.
	st.Arrivals(sc2BlockSlot+parity, 1)
	copy(recv, pgas.Local(blocks, me)[blockOff:blockOff+n])
	me.MemWork(es * n)
	me.NotifyAdd(st.Flags, t.GlobalRank(leader), sc2MemberAck+parity, 1, pgas.ViaShm)
}

// scatterFanOut delivers per-member blocks to the leader's intranode set,
// gated on the acks for the previous same-parity fan-out. block(i, r) yields
// group position i / team rank r's block.
func scatterFanOut[T any](v *team.View, st *coll.State, co *pgas.Coarray[T], blockOff, parity, root int, group []int, es, n int, block func(i, r int) []T) {
	me := v.Img
	t := v.T
	expect := st.Expect()
	if gate := expect[sc2MemberAck+parity]; gate > 0 {
		me.WaitFlagGE(st.Flags, me.Rank(), sc2MemberAck+parity, gate)
	}
	targets := 0
	for i, r := range group {
		if r == v.Rank || r == root {
			continue
		}
		pgas.PutThenNotify(me, co, t.GlobalRank(r), blockOff, block(i, r), st.Flags, sc2BlockSlot+parity, 1, pgas.ViaShm)
		targets++
	}
	expect[sc2MemberAck+parity] += int64(targets)
}

// Flag slots of the two-level gather: parity member-block arrivals at a
// leader, parity node-pack arrivals at the root, parity root→leader credits,
// parity leader→member credits.
const (
	ga2BlockSlot    = 0 // +parity
	ga2PackSlot     = 2
	ga2LeaderCredit = 4
	ga2MemberCredit = 6
	ga2Slots        = 8
)

// GatherTwoLevel collects every member's send block at team rank root with
// the two-level methodology (the mirror of ScatterTwoLevel): each intranode
// set assembles a packed *node block* at its leader over shared memory, each
// leader ships one pack to the root over the network — one inter-node
// message per node — and the root unpacks by team rank. recv is significant
// only at the root and must hold NumImages()*len(send) elements there.
//
// Every landing region has a fixed writer (members own pack slices at their
// leader; a leader's pack put lands in a region only its node owns at the
// episode root), so cross-episode reuse needs no done wave: each writer
// counts its same-parity sends and gates send k on k−1 credits — one credit
// arrives per consumed send, so k−1 credits prove every previously written
// region, on whichever image, was consumed.
func GatherTwoLevel[T any](v *team.View, root int, send, recv []T) {
	t := v.T
	sz := t.Size()
	n := len(send)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpReduce)
	if v.Rank == root {
		if len(recv) < sz*n {
			panic(fmt.Sprintf("core: gather recv %d < %d", len(recv), sz*n))
		}
		copy(recv[root*n:root*n+n], send)
		v.Img.MemWork(es * n)
	}
	if sz == 1 {
		return
	}
	st := coll.GetState(v, coll.Alg{"ga2", pgas.TypeName[T]()}, ga2Slots)
	ep := st.Next()
	parity := int(ep % 2)
	maxGroup := t.MaxNodeGroup()
	leaders := t.Leaders()
	ng := len(leaders)
	// Two boxes, per parity: a leader's pack assembly area (maxGroup blocks,
	// written by its intranode set), and an episode root's landing area —
	// one pack region per node group, written by that group's leader.
	packs, pcap := coll.Scratch[T](st, "pack", n, 2*maxGroup)
	lands, lcap := coll.Scratch[T](st, "land", n, 2*ng*maxGroup)
	packBase := parity * maxGroup * pcap
	landBase := func(gi int) int { return (parity*ng + gi) * maxGroup * lcap }
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	group := t.NodeGroup(t.GroupOf(v.Rank))

	if v.Rank != leader && v.Rank != root {
		// Contribute my block to the leader's pack at my group position,
		// gated on the credit for my previous same-parity contribution.
		st.Credit(ga2MemberCredit + parity)
		pos := groupPos(group, v.Rank)
		pgas.PutThenNotify(me, packs, t.GlobalRank(leader), packBase+pos*n, send, st.Flags, ga2BlockSlot+parity, 1, pgas.ViaShm)
		return
	}
	if v.Rank == leader {
		// Assemble the node pack: count exactly the contributors (the root
		// keeps its block local, so it never contributes).
		contribs := 0
		for _, r := range group {
			if r != v.Rank && r != root {
				contribs++
			}
		}
		if contribs > 0 {
			st.Arrivals(ga2BlockSlot+parity, contribs)
		}
		if v.Rank != root {
			local := pgas.Local(packs, me)
			pos := groupPos(group, v.Rank)
			copy(local[packBase+pos*n:packBase+pos*n+n], send)
			me.MemWork(es * n)
			// Ship the whole pack to the root, gated on the credit for my
			// previous same-parity pack (a root's slot in the pack is a
			// hole the unpack skips).
			st.Credit(ga2LeaderCredit + parity)
			gi := t.GroupOf(v.Rank)
			pgas.PutThenNotify(me, lands, t.GlobalRank(root), landBase(gi), local[packBase:packBase+len(group)*n], st.Flags, ga2PackSlot+parity, 1, pgas.ViaAuto)
			// The pack area is consumed the moment the put is issued.
			for _, r := range group {
				if r != v.Rank && r != root {
					me.NotifyAdd(st.Flags, t.GlobalRank(r), ga2MemberCredit+parity, 1, pgas.ViaShm)
				}
			}
			return
		}
	}
	// Root: wait for every other leader's pack, unpack by team rank, credit.
	sendersExpected := 0
	for _, l := range leaders {
		if l != root {
			sendersExpected++
		}
	}
	if sendersExpected > 0 {
		st.Arrivals(ga2PackSlot+parity, sendersExpected)
	}
	for gi, l := range leaders {
		grp := t.NodeGroup(gi)
		var local []T
		if l == root { // my own node, assembled in place
			local = pgas.Local(packs, me)[packBase:]
		} else {
			local = pgas.Local(lands, me)[landBase(gi):]
		}
		for i, r := range grp {
			if r == root {
				continue
			}
			copy(recv[r*n:r*n+n], local[i*n:i*n+n])
			me.MemWork(es * n)
		}
		if l != root {
			me.NotifyAdd(st.Flags, t.GlobalRank(l), ga2LeaderCredit+parity, 1, pgas.ViaAuto)
		}
	}
	if v.Rank == leader {
		// A root that leads its node credits its contributors itself.
		for _, r := range group {
			if r != v.Rank {
				me.NotifyAdd(st.Flags, t.GlobalRank(r), ga2MemberCredit+parity, 1, pgas.ViaShm)
			}
		}
	}
}

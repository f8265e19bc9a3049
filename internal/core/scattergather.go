package core

import (
	"fmt"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
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

// consecutive reports whether an ascending group's team ranks are
// consecutive: its members' blocks are then one contiguous run of a vector
// ordered by team rank.
func consecutive(group []int) bool { return group[len(group)-1]-group[0] == len(group)-1 }

// Flag slots of the two-level scatter: parity pack arrivals at a leader
// (from the root), parity block arrivals at a member (from its leader),
// parity leader acks at the root, parity member acks at a leader, and the
// done stamp a root gates injection on (its leader's relay, if not a leader).
const (
	sc2PackSlot  = 0 // +parity
	sc2BlockSlot = 2
	sc2RootAck   = 4
	sc2MemberAck = 6
	sc2Done      = 8
	sc2Slots     = 9
)

// ScatterTwoLevel distributes per-member blocks from team rank root with the
// paper's two-level methodology: the root ships one *node block* per
// intranode set (the members' blocks in group order: straight from send when
// their team ranks are consecutive, packed otherwise) to that node's leader —
// one inter-node message per node instead of one per image — and each leader
// fans the blocks out to its intranode set over shared memory. send is
// significant only at the root and must hold NumImages()*len(recv) elements
// there.
//
// Flow control mirrors ScatterLinear: roots vary between episodes, so a done
// stamp published by each episode's root (after every leader acked consuming
// its pack) gates the next same-parity root's injection. A root writes only
// leaders' packs, so the stamp goes to the node leaders — per remote node a
// pack put and notify, an ack and a stamp cross the network — and a leader
// relays it to a root of its node. Member landing regions are guarded by
// member→leader acks, and all arrival waits count exactly (State.Arrivals)
// because each image's role depends on the root.
func ScatterTwoLevel[T any](v *team.View, root int, send, recv []T) {
	if !coll.ScatterOwn(v, root, send, recv) {
		return
	}
	t := v.T
	n := len(recv)
	st := coll.GetState(v, coll.Alg{"sc2", pgas.TypeName[T]()}, sc2Slots)
	parity := int(st.Next() % 2)
	// Two boxes: a leader's pack landing area (MaxNodeGroup blocks, written by
	// the episode root) and a member's block landing region (written by the
	// image's node leader).
	packs := coll.NewBox[T](st, "pack", n, t.MaxNodeGroup())
	blocks := coll.NewBox[T](st, "blk", n, 1)
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	group := t.NodeGroup(t.GroupOf(v.Rank))

	if v.Rank == root {
		// The pack regions this episode overwrites were last written two
		// same-parity episodes ago, possibly by a different root; only the
		// done stamp proves they were consumed.
		st.Inject(sc2Done)
		for gi, l := range t.Leaders() {
			if l == root {
				continue
			}
			grp := t.NodeGroup(gi)
			pack := send[grp[0]*n : (grp[0]+len(grp))*n] // consecutive ranks: packed already
			if !consecutive(grp) {
				// One staging buffer serves every pack: a put captures its
				// payload at issue.
				pack = coll.Temp[T](st, "pack", t.MaxNodeGroup()*n)[:len(grp)*n]
				for i, r := range grp {
					copy(pack[i*n:(i+1)*n], send[r*n:r*n+n])
				}
				me.MemWork(pgas.ElemSize[T]() * len(pack))
			}
			packs.Put(l, 0, pack, sc2PackSlot+parity, pgas.ViaAuto)
		}
		if v.Rank == leader {
			// A root that leads its node fans out straight from send.
			fanOut(v, st, blocks, group, root, sc2MemberAck+parity, sc2BlockSlot+parity,
				func(_, r int) []T { return send[r*n : r*n+n] })
		}
		if sent := others(v, t.Leaders(), -1); sent > 0 {
			st.Arrivals(sc2RootAck+parity, sent)
		}
		// Publish completion to the node leaders, every future root's relay.
		st.Publish(sc2Done, t.Leaders(), 0, pgas.ViaAuto)
		return
	}
	if v.Rank == leader {
		if t.LeaderOf(root) == v.Rank {
			st.Relay(sc2Done, root, pgas.ViaShm) // the root's injection gate
		}
		// Receive the root's node block, fan it out over shared memory, keep
		// my slice, then ack the root (puts capture data at issue, so my
		// pack region is free once my own copy is out of it).
		st.Arrivals(sc2PackSlot+parity, 1)
		pack := packs.Region(0)
		fanOut(v, st, blocks, group, root, sc2MemberAck+parity, sc2BlockSlot+parity,
			func(i, _ int) []T { return pack[i*n : (i+1)*n] })
		pos := groupPos(group, v.Rank)
		copy(recv, pack[pos*n:pos*n+n])
		me.MemWork(pgas.ElemSize[T]() * n)
		me.NotifyAdd(st.Flags, t.GlobalRank(root), sc2RootAck+parity, 1, pgas.ViaAuto)
		return
	}
	// Member: exactly one block arrives, from my node leader, over shared
	// memory; ack it so the leader may reuse my landing region.
	blocks.Land(sc2BlockSlot+parity, recv, leader, sc2MemberAck+parity, pgas.ViaShm)
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
	if !coll.GatherOwn(v, root, send, recv) {
		return
	}
	t := v.T
	n := len(send)
	es := pgas.ElemSize[T]()
	st := coll.GetState(v, coll.Alg{"ga2", pgas.TypeName[T]()}, ga2Slots)
	parity := int(st.Next() % 2)
	maxGroup := t.MaxNodeGroup()
	leaders := t.Leaders()
	// Two boxes: a leader's pack assembly area (maxGroup blocks, written by
	// its intranode set), and an episode root's landing area — one pack of
	// maxGroup regions per node group, written by that group's leader.
	packs := coll.NewBox[T](st, "pack", n, maxGroup)
	lands := coll.NewBox[T](st, "land", n, len(leaders)*maxGroup)
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	group := t.NodeGroup(t.GroupOf(v.Rank))
	// creditGroup tells my contributors their slices of the pack are free.
	creditGroup := func() {
		for _, r := range group {
			if r != v.Rank && r != root {
				me.NotifyAdd(st.Flags, t.GlobalRank(r), ga2MemberCredit+parity, 1, pgas.ViaShm)
			}
		}
	}

	if v.Rank != leader && v.Rank != root {
		// Contribute my block to the leader's pack at my group position,
		// gated on the credit for my previous same-parity contribution.
		st.Gate(ga2MemberCredit+parity, 1)
		packs.PutAt(leader, 0, groupPos(group, v.Rank)*n, send, ga2BlockSlot+parity, pgas.ViaShm)
		return
	}
	if v.Rank == leader {
		// Assemble the node pack, my own block first: count exactly the
		// contributors (the root keeps its block local, so it never
		// contributes). A node of one ships send as it is.
		pack := send
		if len(group) > 1 && v.Rank != root {
			pack = packs.Region(0)[:len(group)*n]
			copy(pack[groupPos(group, v.Rank)*n:], send)
			me.MemWork(es * n)
		}
		if contribs := others(v, group, root); contribs > 0 {
			st.Arrivals(ga2BlockSlot+parity, contribs)
		}
		if v.Rank != root {
			// Ship the whole pack to the root, gated on the credit for my
			// previous same-parity pack (a root's slot in the pack is a
			// hole the unpack skips).
			st.Gate(ga2LeaderCredit+parity, 1)
			lands.Put(root, t.GroupOf(v.Rank)*maxGroup, pack, ga2PackSlot+parity, pgas.ViaAuto)
			// The pack area is consumed the moment the put is issued.
			creditGroup()
			return
		}
	}
	// Root: wait for every other leader's pack, unpack by team rank, credit.
	if senders := others(v, leaders, -1); senders > 0 {
		st.Arrivals(ga2PackSlot+parity, senders)
	}
	for gi, l := range leaders {
		var pack []T
		if l == root { // my own node, assembled in place
			pack = packs.Region(0)
		} else {
			pack = lands.Region(gi * maxGroup)
		}
		for i, r := range t.NodeGroup(gi) {
			if r != root {
				copy(recv[r*n:r*n+n], pack[i*n:i*n+n])
				me.MemWork(es * n)
			}
		}
		if l != root {
			me.NotifyAdd(st.Flags, t.GlobalRank(l), ga2LeaderCredit+parity, 1, pgas.ViaAuto)
		}
	}
	if v.Rank == leader {
		creditGroup() // a root that leads its node credits its contributors itself
	}
}

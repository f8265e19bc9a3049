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

// treeLeaders and treeNodeBlockBytes are the measured crossover (three-episode
// cells like the benchmark's; CHANGES.md has the sweep) from which the leaders'
// stage of ScatterTwoLevel and GatherTwoLevel is the binomial tree over node
// blocks rather than the root's linear fan-out or fan-in. The tree's serial
// per-level hops pay only while a message is mostly latency: below 20 leaders,
// or above 1 KiB node blocks, the linear stage wins, by about 2× at 32 KiB.
const (
	treeLeaders        = 20
	treeNodeBlockBytes = 1 << 10
)

// leadersTree reports whether t's leaders' stage runs the tree for node
// blocks of elemBytes per image: the same on every image of the team, for
// the team and the block size are.
func leadersTree(t *team.Team, elemBytes int) bool {
	return t.NumNodeGroups() >= treeLeaders && t.MaxNodeGroup()*elemBytes <= treeNodeBlockBytes
}

// standIns returns the participants of the leaders' tree, in node-group order:
// the node leaders, the episode root standing in for its node's.
func standIns(st *coll.State, t *team.Team, root int) []int {
	part := coll.Temp[int](st, "standins", t.NumNodeGroups())
	copy(part, t.Leaders())
	part[t.GroupOf(root)] = root
	return part
}

// twoLevelState returns the state of a rooted two-level body, its tree form
// apart: the two forms must not share episodes, flags or regions.
func twoLevelState[T any](v *team.View, name string, tree bool, slots, treeSlots int) *coll.State {
	if tree {
		return coll.GetState(v, coll.Alg{name, "tree", pgas.TypeName[T]()}, slots+treeSlots)
	}
	return coll.GetState(v, coll.Alg{name, pgas.TypeName[T]()}, slots)
}

// Flag slots of the two-level scatter: parity pack arrivals at a leader
// (from the root), parity block arrivals at a member (from its leader),
// parity leader acks at the root, parity member acks at a leader, and the
// done stamp a root gates injection on (its leader's relay, if not a leader);
// the tree form's leaders' tree follows.
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
// The leaders' stage has two forms (leadersTree). Few leaders or large node
// blocks: the root puts every node block itself. Otherwise the blocks descend
// the binomial scatter tree over node blocks (coll.SubgroupScatterBinomial),
// the root standing in for its node, which it serves like a leader when it
// is one and through its leader otherwise; a leader fans its node block out
// as soon as it has forwarded its subtree. With one image per node the tree's
// messages are exactly scatter/binomial's.
//
// Flow control mirrors ScatterLinear: roots vary between episodes, so a done
// stamp published by each episode's root (after every leader acked consuming
// its pack, or its subtree) gates the next same-parity root's injection. A
// root writes only leaders' landing areas, so the stamp goes to the node
// leaders — per remote node a pack put and notify, an ack and a stamp cross
// the network — and a leader relays it to a root of its node. Member landing
// regions are guarded by member→leader acks, and all arrival waits count
// exactly (State.Arrivals) because each image's role depends on the root.
func ScatterTwoLevel[T any](v *team.View, root int, send, recv []T) {
	if !coll.ScatterOwn(v, root, send, recv) {
		return
	}
	t := v.T
	n := len(recv)
	tree := leadersTree(t, n*pgas.ElemSize[T]())
	st := twoLevelState[T](v, "sc2", tree, sc2Slots, 4)
	ep := st.Next()
	parity := int(ep % 2)
	// Two boxes: a leader's pack landing area (MaxNodeGroup blocks, written by
	// the episode root) and a member's block landing region (written by the
	// image's node leader).
	packs := coll.NewBox[T](st, "pack", n, t.MaxNodeGroup())
	blocks := coll.NewBox[T](st, "blk", n, 1)
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	gi, rgi := t.GroupOf(v.Rank), t.GroupOf(root)
	group := t.NodeGroup(gi)
	// fanOutFrom serves my intranode set, member r's block taken from block.
	fanOutFrom := func(block func(i, r int) []T) {
		fanOut(v, st, blocks, group, root, sc2MemberAck+parity, sc2BlockSlot+parity, block)
	}

	if v.Rank == root {
		// The pack regions this episode overwrites were last written two
		// same-parity episodes ago, possibly by a different root; only the
		// done stamp proves they were consumed.
		st.Inject(sc2Done)
		if tree {
			coll.SubgroupScatterBinomial(v, st, sc2Slots, standIns(st, t, root), rgi, rgi, t.NodeGroup, t.MaxNodeGroup(), send, recv, ep, func(packed []T) {
				if v.Rank == leader {
					fanOutFrom(func(_, r int) []T { return send[r*n : r*n+n] })
				} else { // my node's block leads the packed tree
					packs.Put(leader, 0, packed[:len(group)*n], sc2PackSlot+parity, pgas.ViaShm)
				}
			})
			if v.Rank != leader {
				st.Arrivals(sc2RootAck+parity, 1)
			}
			st.Publish(sc2Done, t.Leaders(), rgi, pgas.ViaAuto)
			return
		}
		for g, l := range t.Leaders() {
			if l == root {
				continue
			}
			grp := t.NodeGroup(g)
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
			fanOutFrom(func(_, r int) []T { return send[r*n : r*n+n] })
		}
		if sent := others(v, t.Leaders(), -1); sent > 0 {
			st.Arrivals(sc2RootAck+parity, sent)
		}
		// Publish completion to the node leaders, every future root's relay.
		st.Publish(sc2Done, t.Leaders(), 0, pgas.ViaAuto)
		return
	}
	if v.Rank == leader && tree && gi != rgi {
		// My subtree lands, my own block (the head of it) is taken out, the
		// subtree forwarded, and my node block fanned out before I ack.
		coll.SubgroupScatterBinomial(v, st, sc2Slots, standIns(st, t, root), gi, rgi, t.NodeGroup, t.MaxNodeGroup(), nil, recv, ep, func(packed []T) {
			fanOutFrom(func(i, _ int) []T { return packed[i*n : (i+1)*n] })
		})
		return
	}
	if v.Rank == leader {
		if rgi == gi {
			st.Relay(sc2Done, root, pgas.ViaShm) // the root's injection gate
		}
		// Receive the root's node block, fan it out over shared memory, keep
		// my slice, then ack the root (puts capture data at issue, so my
		// pack region is free once my own copy is out of it).
		st.Arrivals(sc2PackSlot+parity, 1)
		pack := packs.Region(0)
		fanOutFrom(func(i, _ int) []T { return pack[i*n : (i+1)*n] })
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
// parity leader→member credits; the tree form's leaders' tree follows.
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
// The leaders' stage has two forms (leadersTree). Few leaders or large node
// blocks: every leader ships its pack to the root. Otherwise the packs climb
// the binomial gather tree over node blocks (coll.SubgroupGatherBinomial),
// the root standing in for its node: it unpacks its own node's pack — its
// own assembly when it leads the node, its leader's shipment otherwise —
// while the tree's packs are on the network. With one image per node the
// tree's messages are exactly gather/binomial's.
//
// Every landing region has a fixed writer (members own pack slices at their
// leader; a leader's pack put lands in a region only its node owns at the
// episode root, or in the slice of its tree parent's area its edge owns), so
// cross-episode reuse needs no done wave: each writer counts its same-parity
// sends and gates send k on k−1 credits — one credit arrives per consumed
// send, so k−1 credits prove every previously written region, on whichever
// image, was consumed.
func GatherTwoLevel[T any](v *team.View, root int, send, recv []T) {
	if !coll.GatherOwn(v, root, send, recv) {
		return
	}
	t := v.T
	n := len(send)
	es := pgas.ElemSize[T]()
	leaders := t.Leaders()
	tree := leadersTree(t, n*es)
	st := twoLevelState[T](v, "ga2", tree, ga2Slots, 3*coll.Rounds(len(leaders)))
	ep := st.Next()
	parity := int(ep % 2)
	maxGroup := t.MaxNodeGroup()
	// Two boxes: a leader's pack assembly area (maxGroup blocks, written by
	// its intranode set), and an episode root's landing area — one pack of
	// maxGroup regions per node group, written by that group's leader.
	packs := coll.NewBox[T](st, "pack", n, maxGroup)
	lands := coll.NewBox[T](st, "land", n, len(leaders)*maxGroup)
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	gi, rgi := t.GroupOf(v.Rank), t.GroupOf(root)
	group := t.NodeGroup(gi)
	// creditGroup tells my contributors their slices of the pack are free.
	creditGroup := func() {
		for _, r := range group {
			if r != v.Rank && r != root {
				me.NotifyAdd(st.Flags, t.GlobalRank(r), ga2MemberCredit+parity, 1, pgas.ViaShm)
			}
		}
	}
	// unpack places node group b's pack by team rank (the root's slot in
	// it is a hole).
	unpack := func(b int, pack []T) {
		for i, r := range t.NodeGroup(b) {
			if r != root {
				copy(recv[r*n:r*n+n], pack[i*n:i*n+n])
				me.MemWork(es * n)
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
			if tree && gi != rgi {
				coll.SubgroupGatherBinomial(v, st, ga2Slots, standIns(st, t, root), gi, rgi, t.NodeGroup, maxGroup, pack, nil, n, ep)
			} else {
				// Ship the whole pack to the root, gated on the credit for
				// my previous same-parity pack.
				st.Gate(ga2LeaderCredit+parity, 1)
				lands.Put(root, gi*maxGroup, pack, ga2PackSlot+parity, pgas.ViaAuto)
			}
			// The pack area is consumed the moment the put is issued.
			creditGroup()
			return
		}
	}
	if tree {
		// Root: my node's pack first (it travels over shared memory), then the
		// leaders' tree.
		if v.Rank == leader {
			unpack(rgi, packs.Region(0))
			creditGroup()
		} else {
			st.Arrivals(ga2PackSlot+parity, 1)
			unpack(rgi, lands.Region(rgi*maxGroup))
			me.NotifyAdd(st.Flags, t.GlobalRank(leader), ga2LeaderCredit+parity, 1, pgas.ViaShm)
		}
		coll.SubgroupGatherBinomial(v, st, ga2Slots, standIns(st, t, root), rgi, rgi, t.NodeGroup, maxGroup, send, recv, n, ep)
		return
	}
	// Root: wait for every other leader's pack, unpack by team rank, credit.
	if senders := others(v, leaders, -1); senders > 0 {
		st.Arrivals(ga2PackSlot+parity, senders)
	}
	for b, l := range leaders {
		if l == root { // my own node, assembled in place
			unpack(b, packs.Region(0))
			continue
		}
		unpack(b, lands.Region(b*maxGroup))
		me.NotifyAdd(st.Flags, t.GlobalRank(l), ga2LeaderCredit+parity, 1, pgas.ViaAuto)
	}
	if v.Rank == leader {
		creditGroup() // a root that leads its node credits its contributors itself
	}
}

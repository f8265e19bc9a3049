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
// blocks rather than the linear one. The tree's serial per-level hops pay only
// while a message is mostly latency: below 20 leaders, or above 1 KiB node
// blocks, the linear stage wins, by about 2× at 32 KiB.
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

// standIns returns the participants of the leaders' stage, in node-group
// order: the node leaders, the episode root standing in for its node's.
func standIns(st *coll.State, t *team.Team, root int) []int {
	part := coll.Temp[int](st, "standins", t.NumNodeGroups())
	copy(part, t.Leaders())
	part[t.GroupOf(root)] = root
	return part
}

// twoLevelState returns the state of a rooted two-level body, its tree form
// apart: the two forms must not share episodes, flags or regions.
func twoLevelState[T any](v *team.View, name string, tree bool, slots int) *coll.State {
	if tree {
		return coll.GetState(v, coll.Alg{name, "tree", pgas.TypeName[T]()}, slots)
	}
	return coll.GetState(v, coll.Alg{name, pgas.TypeName[T]()}, slots)
}

// Flag slots of the two-level scatter: parity node-block arrivals at the leader
// of the root's node (from a root that does not lead it) and its parity acks at
// the root, parity block arrivals at a member and its acks at the leader, and
// the done stamp a root gates injection on (its leader's relay, if not a
// leader); the leaders' stage's four follow.
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
// The leaders' stage is coll's scatter over node blocks among the node
// leaders, the root standing in for its node (leadersTree picks the form): the
// root puts every node block itself (coll.SubgroupScatterLinear), or the blocks
// descend the binomial tree (coll.SubgroupScatterBinomial). A leader fans its
// node block out as soon as it has it (and has forwarded its subtree); the root
// serves its own node once the stage's blocks are out. With one image per node
// either form sends exactly what flat linear or binomial sends.
//
// Flow control mirrors the flat scatters: roots vary between episodes, so the
// done stamp each episode's root publishes once every ack is in gates the next
// same-parity root's injection. A root writes only leaders' landing areas, so
// the stamp goes to the node leaders — per remote node a put and its notify,
// an ack and a stamp cross the network — and a leader relays it to a root of
// its node. Member landing regions are guarded by member→leader acks, and all
// arrival waits count exactly (State.Arrivals): each role depends on the root.
func ScatterTwoLevel[T any](v *team.View, root int, send, recv []T) {
	if !coll.ScatterOwn(v, root, send, recv) {
		return
	}
	t := v.T
	n := len(recv)
	tree := leadersTree(t, n*pgas.ElemSize[T]())
	st := twoLevelState[T](v, "sc2", tree, sc2Slots+4)
	parity := st.Next()
	// Besides the stage's boxes: the root's node block at its leader, written
	// by a root that does not lead its node, and a member's block landing
	// region, written by its leader.
	packs := coll.NewBox[T](st, "pack", n, t.MaxNodeGroup())
	blocks := coll.NewBox[T](st, "blk", n, 1)
	leader := t.LeaderOf(v.Rank)
	gi, rgi := t.GroupOf(v.Rank), t.GroupOf(root)
	group := t.NodeGroup(gi)
	// serve hands my node its node block, packed in group order: a leader fans
	// it out, a root that does not lead its node ships it to its leader.
	serve := func(packed []T) {
		if v.Rank != leader {
			packs.Put(leader, 0, packed[:len(group)*n], sc2PackSlot+parity, pgas.ViaShm)
			return
		}
		fanOut(v, st, blocks, group, root, sc2MemberAck+parity, sc2BlockSlot+parity, 0, func(i, _ int) []T { return packed[i*n : (i+1)*n] })
	}

	switch {
	case v.Rank == root || v.Rank == leader && gi != rgi:
		if v.Rank == root {
			// The regions this episode overwrites were last written two
			// same-parity episodes ago, possibly by a different root; only the
			// done stamp proves they were consumed.
			st.Inject(sc2Done)
		}
		// The done wave below goes in rank order, like flat linear's, or
		// root-relative after the tree, like binomial's.
		part, first := standIns(st, t, root), 0
		if tree {
			first = rgi
			coll.SubgroupScatterBinomial(st, sc2Slots, part, gi, rgi, t.NodeGroup, t.MaxNodeGroup(), send, recv, serve)
		} else {
			coll.SubgroupScatterLinear(st, sc2Slots, part, gi, rgi, t.NodeGroup, t.MaxNodeGroup(), send, recv, serve)
		}
		if v.Rank != root {
			return
		}
		if v.Rank != leader {
			st.Arrivals(sc2RootAck+parity, 1)
		}
		// Publish completion to the node leaders, every future root's relay.
		st.Publish(sc2Done, t.Leaders(), first, pgas.ViaAuto)
	case v.Rank == leader:
		// The root's node: relay its injection gate, fan the node block out,
		// keep my block (its head), then ack — puts capture data at issue.
		st.Relay(sc2Done, root, pgas.ViaShm)
		st.Arrivals(sc2PackSlot+parity, 1)
		serve(packs.Region(0))
		packs.Take(0, recv)
		st.Notify(root, sc2RootAck+parity, pgas.ViaShm)
	default:
		// Member: exactly one block arrives, from my node leader, over shared
		// memory; ack it so the leader may reuse my landing region.
		blocks.Land(sc2BlockSlot+parity, recv, leader, sc2MemberAck+parity, pgas.ViaShm)
	}
}

// Flag slots of the two-level gather: parity member-block arrivals at a
// leader, parity arrivals of its node's pack at a root that does not lead it
// and the credits back, parity leader→member credits; the leaders' stage's
// slots follow.
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
// leader ships one pack towards the root over the network — one inter-node
// message per node — and the root unpacks by team rank. recv is significant
// only at the root and must hold NumImages()*len(send) elements there.
//
// The leaders' stage is coll's gather over node blocks among the node leaders,
// the root standing in for its node (leadersTree picks the form): every leader
// ships its pack to the root (coll.SubgroupGatherLinear), or the packs climb
// the binomial tree (coll.SubgroupGatherBinomial). The root first unpacks its
// own node's pack, while the stage's packs are on the network. With one image
// per node either form sends exactly what flat linear or binomial sends.
//
// Every landing region has a fixed writer (members own pack slices at their
// leader, the leader of the root's node the root's landing area for it, a
// stage sender its region of the receiving stand-in's), so cross-episode reuse
// needs no done wave: each writer counts its same-parity sends and gates send k
// on k−1 credits — one credit arrives per consumed send, so k−1 credits prove
// every previously written region, on whichever image, was consumed.
func GatherTwoLevel[T any](v *team.View, root int, send, recv []T) {
	if !coll.GatherOwn(v, root, send, recv) {
		return
	}
	t := v.T
	n := len(send)
	es := pgas.ElemSize[T]()
	tree := leadersTree(t, n*es)
	stageSlots := 4
	if tree {
		stageSlots = 3 * coll.Rounds(t.NumNodeGroups())
	}
	st := twoLevelState[T](v, "ga2", tree, ga2Slots+stageSlots)
	parity := st.Next()
	maxGroup := t.MaxNodeGroup()
	// Besides the stage's boxes: a leader's pack assembly area, written by its
	// intranode set, and the root's landing area for its own node's pack.
	packs := coll.NewBox[T](st, "pack", n, maxGroup)
	lands := coll.NewBox[T](st, "land", n, maxGroup)
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	gi, rgi := t.GroupOf(v.Rank), t.GroupOf(root)
	group := t.NodeGroup(gi)
	// creditGroup tells my contributors their slices of the pack are free.
	creditGroup := func() {
		for _, r := range group {
			if r != v.Rank && r != root {
				st.Notify(r, ga2MemberCredit+parity, pgas.ViaShm)
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
	pack := send
	if v.Rank == leader {
		// Assemble the node pack, my own block first: count exactly the
		// contributors (the root keeps its block local, so it never
		// contributes). A node of one ships send as it is.
		if len(group) > 1 && v.Rank != root {
			pack = packs.Region(0)[:len(group)*n]
			copy(pack[groupPos(group, v.Rank)*n:], send)
			me.MemWork(es * n)
		}
		if contribs := others(v, group, root); contribs > 0 {
			st.Arrivals(ga2BlockSlot+parity, contribs)
		}
	}
	switch {
	case v.Rank == root:
		// My node's pack first, by team rank (my own slot in it is a hole).
		var own []T
		if v.Rank == leader {
			own = packs.Region(0)
		} else {
			st.Arrivals(ga2PackSlot+parity, 1)
			own = lands.Landed(0, 0, len(group)*n)
		}
		for i, r := range group {
			if r != root {
				copy(recv[r*n:r*n+n], own[i*n:i*n+n])
				me.MemWork(es * n)
			}
		}
		if v.Rank == leader {
			creditGroup()
		} else {
			st.Notify(leader, ga2LeaderCredit+parity, pgas.ViaShm)
		}
	case gi == rgi:
		// The root's node: ship the whole pack to the root over shared memory,
		// gated on the credit for my previous same-parity pack.
		st.Gate(ga2LeaderCredit+parity, 1)
		lands.Put(root, 0, pack, ga2PackSlot+parity, pgas.ViaShm)
		creditGroup()
		return
	}
	part := standIns(st, t, root)
	if tree {
		coll.SubgroupGatherBinomial(st, ga2Slots, part, gi, rgi, t.NodeGroup, maxGroup, pack, recv, n)
	} else {
		coll.SubgroupGatherLinear(st, ga2Slots, part, gi, rgi, t.NodeGroup, maxGroup, pack, recv, n)
	}
	if v.Rank != root {
		creditGroup() // the pack area is consumed the moment its put is issued
	}
}

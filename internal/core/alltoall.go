package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// Flag slots of the two-level alltoall: parity send-vector arrivals at a
// leader (from its intranode set), parity node-pair pack arrivals at a
// leader (from peer leaders), and parity assembled-vector arrivals at a
// member (from its leader).
const (
	a2aInboxSlot  = 0 // +parity
	a2aPackSlot   = 2
	a2aOutboxSlot = 4
	a2aSlots      = 6
)

// AlltoallTwoLevel is the hierarchy-aware personalized all-to-all exchange:
// each member hands its whole send vector to its node leader over shared
// memory, the leaders exchange one *node-pair pack* per pair of nodes over
// the network — |g|·|h| blocks aggregated into a single message, the
// leader-staged counterpart of the pairwise exchange's |g|·|h| separate
// wires — and each leader assembles and delivers every member's receive
// vector over shared memory. send block j goes to team rank j; recv block i
// arrives from team rank i; both hold NumImages() blocks. Per episode: a put
// and its notify per ordered node pair over the network, two per member over
// shared memory, nothing else.
//
// No landing region needs a credit: as in coll.AlltoallPairwise, the
// exchange's own waits prove a region's reader consumed episode e's write
// before its writer's episode e+2 reuses it.
//   - A member's inbox slot at its leader: the member ships episode e+2 after
//     its episode e+1 outbox arrived, sent by the leader after episode e.
//   - A peer's pack landing at a leader: the peer ships episode e+2 after
//     every pack of episode e+1 arrived, the leader's sent after episode e.
//   - A member's outbox: the leader delivers episode e+2 after the member's
//     episode e+2 send vector arrived, shipped after it took episode e's.
func AlltoallTwoLevel[T any](v *team.View, send, recv []T) {
	t := v.T
	sz := t.Size()
	n := coll.AlltoallBlock(v, send, recv)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpReduce)
	if sz == 1 {
		copy(recv, send[:n])
		return
	}
	st := coll.GetState(v, coll.Alg{"a2a2", pgas.TypeName[T]()}, a2aSlots)
	parity := int(st.Next() % 2)
	mg := t.MaxNodeGroup()
	leaders := t.Leaders()
	ng := len(leaders)
	// Three boxes (in block-sized regions): a leader's inbox (one full send
	// vector of sz regions per group position), a leader's node-pair pack
	// landing area (mg·mg regions per source group), and a member's outbox
	// (one full recv vector).
	inbox := coll.NewBox[T](st, "in", n, mg*sz)
	lands := coll.NewBox[T](st, "land", n, ng*mg*mg)
	outbox := coll.NewBox[T](st, "out", n, sz)
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	gi := t.GroupOf(v.Rank)
	group := t.NodeGroup(gi)
	gsz := len(group)

	if v.Rank != leader {
		// Ship my send vector to the leader's inbox, then take my assembled
		// receive vector.
		inbox.Put(leader, groupPos(group, v.Rank)*sz, send[:sz*n], a2aInboxSlot+parity, pgas.ViaShm)
		st.Arrivals(a2aOutboxSlot+parity, 1)
		outbox.Take(0, recv[:sz*n])
		return
	}

	// Leader: collect the intranode set's send vectors. The inbox and the
	// landing area stay untouched on a leader with no members or no peers.
	if gsz > 1 {
		st.Arrivals(a2aInboxSlot+parity, gsz-1)
	}
	// vec(i) is group position i's full send vector.
	vec := func(i int) []T {
		if group[i] == v.Rank {
			return send
		}
		return inbox.Region(i * sz)
	}
	// Exchange node-pair packs with every peer leader: the pack for group h
	// holds, for each of my members (group order), its blocks for each of
	// h's members (group order).
	if ng > 1 {
		// One staging buffer serves every pack: a put captures its payload
		// at issue.
		pack := coll.Temp[T](st, "pack", gsz*mg*n)
		for hi, lh := range leaders {
			if hi == gi {
				continue
			}
			hgrp := t.NodeGroup(hi)
			pack = pack[:0]
			for i := range group {
				sv := vec(i)
				for _, d := range hgrp {
					pack = append(pack, sv[d*n:d*n+n]...)
				}
			}
			me.MemWork(es * len(pack))
			lands.Put(lh, gi*mg*mg, pack, a2aPackSlot+parity, pgas.ViaAuto)
		}
		st.Arrivals(a2aPackSlot+parity, ng-1)
	}
	// Assemble every member's receive vector — my own included, in group
	// order — and deliver it.
	out := coll.Temp[T](st, "out", sz*n)
	for j, m := range group {
		for hi := range leaders {
			for i, s := range t.NodeGroup(hi) { // block s comes from position i of group hi
				if hi == gi {
					copy(out[s*n:s*n+n], vec(i)[m*n:])
				} else {
					copy(out[s*n:s*n+n], lands.Region(hi * mg * mg)[(i*gsz+j)*n:])
				}
			}
		}
		me.MemWork(es * sz * n)
		if m == v.Rank {
			copy(recv, out)
		} else {
			outbox.Put(m, 0, out, a2aOutboxSlot+parity, pgas.ViaShm)
		}
	}
}

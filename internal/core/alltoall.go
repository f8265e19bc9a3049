package core

import (
	"fmt"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// Flag slots of the two-level alltoall: parity send-vector arrivals at a
// leader (from its intranode set), parity node-pair pack arrivals at a
// leader (from peer leaders), parity assembled-vector arrivals at a member,
// parity inbox credits (leader→member), parity pack credits (leader→leader),
// and parity outbox acks (member→leader).
const (
	a2aInboxSlot   = 0 // +parity
	a2aPackSlot    = 2
	a2aOutboxSlot  = 4
	a2aInboxCredit = 6
	a2aPackCredit  = 8
	a2aOutboxAck   = 10
	a2aSlots       = 12
)

// AlltoallTwoLevel is the hierarchy-aware personalized all-to-all exchange:
// each member hands its whole send vector to its node leader over shared
// memory, the leaders exchange one *node-pair pack* per pair of nodes over
// the network — |g|·|h| blocks aggregated into a single message, the
// leader-staged counterpart of the pairwise exchange's |g|·|h| separate
// wires — and each leader assembles and delivers every member's receive
// vector over shared memory. send block j goes to team rank j; recv block i
// arrives from team rank i; both hold NumImages() blocks.
//
// All roles are fixed by team structure, so flow control is pure
// sender-counted parity credits: every landing region has a single writer
// that gates its k-th same-parity write on k−1 credits from the consumers.
func AlltoallTwoLevel[T any](v *team.View, send, recv []T) {
	t := v.T
	sz := t.Size()
	if len(send)%sz != 0 {
		panic(fmt.Sprintf("core: alltoall send %d not a multiple of team size %d", len(send), sz))
	}
	n := len(send) / sz
	if len(recv) < sz*n {
		panic(fmt.Sprintf("core: alltoall recv %d < %d", len(recv), sz*n))
	}
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
		// Ship my send vector to the leader's inbox, gated on the credit
		// for my previous same-parity shipment; then collect my assembled
		// receive vector and ack it.
		st.Gate(a2aInboxCredit+parity, 1)
		inbox.Put(leader, groupPos(group, v.Rank)*sz, send[:sz*n], a2aInboxSlot+parity, pgas.ViaShm)
		outbox.Land(a2aOutboxSlot+parity, recv[:sz*n], leader, a2aOutboxAck+parity, pgas.ViaShm)
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
	// h's members (group order). Gate this episode's packs on the credits
	// for every previous same-parity pack.
	if ng > 1 {
		st.Gate(a2aPackCredit+parity, ng-1)
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
	// order — and deliver it, gated on the acks for the previous same-parity
	// fan-out.
	out := coll.Temp[T](st, "out", sz*n)
	fanOut(v, st, outbox, group, -1, a2aOutboxAck+parity, a2aOutboxSlot+parity, func(j, m int) []T {
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
		}
		return out
	})
	// Everything staged here is consumed: credit my members' inbox slots and
	// the peer leaders' pack landings.
	for _, m := range group {
		if m != v.Rank {
			me.NotifyAdd(st.Flags, t.GlobalRank(m), a2aInboxCredit+parity, 1, pgas.ViaShm)
		}
	}
	for hi, lh := range leaders {
		if hi != gi {
			me.NotifyAdd(st.Flags, t.GlobalRank(lh), a2aPackCredit+parity, 1, pgas.ViaAuto)
		}
	}
}

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
	ep := st.Next()
	parity := int(ep % 2)
	mg := t.MaxNodeGroup()
	leaders := t.Leaders()
	ng := len(leaders)
	// Three boxes, per parity (in cap-sized block units): a leader's inbox
	// (one full send vector per group position), a leader's node-pair pack
	// landing area per source group, and a member's outbox (one full recv
	// vector).
	inbox, icap := coll.Scratch[T](st, "in", n, 2*mg*sz)
	lands, lcap := coll.Scratch[T](st, "land", n, 2*ng*mg*mg)
	outbox, ocap := coll.Scratch[T](st, "out", n, 2*sz)
	inboxAt := func(pos int) int { return (parity*mg + pos) * sz * icap }
	landAt := func(gi int) int { return (parity*ng + gi) * mg * mg * lcap }
	outboxOff := parity * sz * ocap
	me := v.Img
	expect := st.Expect()
	leader := t.LeaderOf(v.Rank)
	gi := t.GroupOf(v.Rank)
	group := t.NodeGroup(gi)
	gsz := len(group)

	if v.Rank != leader {
		// Ship my send vector to the leader's inbox, gated on the credit
		// for my previous same-parity shipment; then collect my assembled
		// receive vector and ack it.
		st.Credit(a2aInboxCredit + parity)
		pos := groupPos(group, v.Rank)
		pgas.PutThenNotify(me, inbox, t.GlobalRank(leader), inboxAt(pos), send[:sz*n], st.Flags, a2aInboxSlot+parity, 1, pgas.ViaShm)
		st.Arrivals(a2aOutboxSlot+parity, 1)
		copy(recv, pgas.Local(outbox, me)[outboxOff:outboxOff+sz*n])
		me.MemWork(es * sz * n)
		me.NotifyAdd(st.Flags, t.GlobalRank(leader), a2aOutboxAck+parity, 1, pgas.ViaShm)
		return
	}

	// Leader: collect the intranode set's send vectors. staged and landed
	// stay nil — and their boxes untouched — on a leader with no members or
	// no peers.
	var staged, landed []T
	if gsz > 1 {
		st.Arrivals(a2aInboxSlot+parity, gsz-1)
		staged = pgas.Local(inbox, me)
	}
	// vec(i) is group position i's full send vector.
	vec := func(i int) []T {
		if group[i] == v.Rank {
			return send
		}
		return staged[inboxAt(i) : inboxAt(i)+sz*n]
	}
	// Exchange node-pair packs with every peer leader: the pack for group h
	// holds, for each of my members (group order), its blocks for each of
	// h's members (group order). Gate this episode's packs on the credits
	// for every previous same-parity pack.
	if ng > 1 {
		if prev := expect[a2aPackCredit+parity]; prev > 0 {
			me.WaitFlagGE(st.Flags, me.Rank(), a2aPackCredit+parity, prev)
		}
		expect[a2aPackCredit+parity] += int64(ng - 1)
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
			pgas.PutThenNotify(me, lands, t.GlobalRank(lh), landAt(gi), pack, st.Flags, a2aPackSlot+parity, 1, pgas.ViaAuto)
		}
		st.Arrivals(a2aPackSlot+parity, ng-1)
		landed = pgas.Local(lands, me)
	}
	// Assemble every member's receive vector, gated on the acks for the
	// previous same-parity fan-out.
	if gate := expect[a2aOutboxAck+parity]; gate > 0 {
		me.WaitFlagGE(st.Flags, me.Rank(), a2aOutboxAck+parity, gate)
	}
	out := coll.Temp[T](st, "out", sz*n)
	targets := 0
	for j, m := range group {
		for s := 0; s < sz; s++ {
			hi := t.GroupOf(s)
			var block []T
			if hi == gi {
				sv := vec(groupPos(group, s))
				block = sv[m*n : m*n+n]
			} else {
				i := groupPos(t.NodeGroup(hi), s)
				off := landAt(hi) + (i*gsz+j)*n
				block = landed[off : off+n]
			}
			copy(out[s*n:s*n+n], block)
		}
		me.MemWork(es * sz * n)
		if m == v.Rank {
			copy(recv, out)
			continue
		}
		pgas.PutThenNotify(me, outbox, t.GlobalRank(m), outboxOff, out, st.Flags, a2aOutboxSlot+parity, 1, pgas.ViaShm)
		targets++
	}
	expect[a2aOutboxAck+parity] += int64(targets)
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

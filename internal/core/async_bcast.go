package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
)

// Split-phase broadcast machines, decomposed from the blocking twins
// (coll.SubgroupBcastBinomial, BcastTwoLevel) with the identical credit
// flow-control scheme: parity payload/ack slots plus a done-stamp wave, and
// an injection gate at done >= episode-2 so a root can never overwrite a
// landing region a slow receiver has not consumed.

// nbBcast phases.
const (
	bcGate = iota
	bcInit
	bcRootGate // root waiting the episode-(e-2) done stamp
	bcWaitPay  // non-root waiting the payload
	bcWaitAcks // waiting the subtree's acks
	bcDone
)

// nbBcast is the split-phase binomial-tree broadcast over an arbitrary
// subgroup (group lists team ranks, myIdx/rootIdx indexes into it).
// Flag layout: slots 0-1 parity payload arrivals, 2-3 parity acks, 4 done
// stamps.
type nbBcast[T any] struct {
	nbBase
	group   []int
	rootIdx int
	rel     int // rank relative to the root
	buf     []T
	via     pgas.Via
	co      *pgas.Coarray[T]
	cap_    int
	n, es   int
	nkids   int
	phase   int
}

func newNBBcast[T any](v *team.View, group []int, myIdx, rootIdx int, buf []T, alg string, via pgas.Via) *nbBcast[T] {
	g := len(group)
	n := len(buf)
	key := alg + ".bcast." + via.String() + "." + pgas.TypeName[T]()
	m := &nbBcast[T]{
		group: group, rootIdx: rootIdx, rel: (myIdx - rootIdx + g) % g,
		buf: buf, via: via, n: n, es: pgas.ElemSize[T](),
	}
	m.nbBase = newNBBase(v, getNBState(v, key, 5))
	m.co, m.cap_ = coll.Scratch[T](v, key, "nb", n, 2)
	return m
}

func (m *nbBcast[T]) global(relIdx int) int {
	g := len(m.group)
	return m.v.T.GlobalRank(m.group[(relIdx+m.rootIdx)%g])
}

func (m *nbBcast[T]) parity() int  { return int(m.ep % 2) }
func (m *nbBcast[T]) reg() int     { return m.parity() * m.cap_ }
func (m *nbBcast[T]) paySlot() int { return m.parity() }
func (m *nbBcast[T]) ackSlot() int { return 2 + m.parity() }

// forwardKids ships the payload down the subtree (highest distance first)
// and adds the children to the expected ack count. Reports whether there is
// a subtree to wait for.
func (m *nbBcast[T]) forwardKids() bool {
	g := len(m.group)
	me := m.v.Img
	m.nkids = 0
	for k := disseminationRounds(g) - 1; k >= 0; k-- {
		if m.rel < 1<<k && m.rel+1<<k < g {
			pgas.PutThenNotify(me, m.co, m.global(m.rel+1<<k), m.reg(), m.buf, m.st.flags, m.paySlot(), 1, m.via)
			m.nkids++
		}
	}
	m.st.ackExpect[m.parity()][m.v.Rank] += int64(m.nkids)
	return m.nkids > 0
}

// ackParent climbs the ack wave one level.
func (m *nbBcast[T]) ackParent() {
	parent := m.rel - nbFloorPow2(m.rel)
	m.v.Img.NotifyAdd(m.st.flags, m.global(parent), m.ackSlot(), 1, m.via)
}

// stampDone publishes the episode's completion to every member (the
// injection gate of episode ep+2).
func (m *nbBcast[T]) stampDone() {
	me := m.v.Img
	me.SetLocal(m.st.flags, 4, m.ep)
	for i := 1; i < len(m.group); i++ {
		me.NotifySet(m.st.flags, m.global(i), 4, m.ep, m.via)
	}
}

func (m *nbBcast[T]) Step() bool {
	me := m.v.Img
	for {
		switch m.phase {
		case bcGate:
			m.gate()
			if !m.ready() {
				return false
			}
			m.phase = bcInit
		case bcInit:
			if len(m.group) == 1 {
				m.finish()
				m.phase = bcDone
				return true
			}
			if m.rel == 0 {
				m.blockOn(4, m.ep-2)
				m.phase = bcRootGate
				continue
			}
			m.st.payExpect[m.parity()][m.v.Rank]++
			m.blockOn(m.paySlot(), m.st.payExpect[m.parity()][m.v.Rank])
			m.phase = bcWaitPay
		case bcRootGate:
			if !m.ready() {
				return false
			}
			if m.forwardKids() {
				m.blockOn(m.ackSlot(), m.st.ackExpect[m.parity()][m.v.Rank])
				m.phase = bcWaitAcks
				continue
			}
			m.stampDone()
			m.finish()
			m.phase = bcDone
			return true
		case bcWaitPay:
			if !m.ready() {
				return false
			}
			copy(m.buf, pgas.Local(m.co, me)[m.reg():m.reg()+m.n])
			me.MemWork(m.es * m.n)
			if m.forwardKids() {
				m.blockOn(m.ackSlot(), m.st.ackExpect[m.parity()][m.v.Rank])
				m.phase = bcWaitAcks
				continue
			}
			m.ackParent()
			m.finish()
			m.phase = bcDone
			return true
		case bcWaitAcks:
			if !m.ready() {
				return false
			}
			if m.rel != 0 {
				m.ackParent()
			} else {
				m.stampDone()
			}
			m.finish()
			m.phase = bcDone
			return true
		default: // bcDone
			return true
		}
	}
}

// nbBcast2 phases.
const (
	b2Gate = iota
	b2Init
	b2HandoffGate    // non-leader root waiting the previous same-parity handoff's ack
	b2RootLeaderWait // root's leader waiting the non-leader root's handoff
	b2LeaderSub      // leader driving the inter-node binomial sub-machine
	b2FanGate        // leader waiting the previous same-parity fan-out's acks
	b2MemberWait     // member waiting the leader's fan-out
	b2Done
)

// nbBcast2 is the split-phase two-level broadcast: a non-leader source hands
// the payload to its node leader over shared memory, the leaders run the
// flow-controlled binomial sub-machine over the conduit, and each leader
// fans out to its intranode set. Flag layout (shared nbState): slot 0 root
// handoff, slot 1 fan-out arrivals, slots 3-4 parity fan-out ack credits,
// slots 5-6 parity handoff ack credits (the handoff is the one edge with no
// downstream wait on the root's critical path — a split-phase root finishes
// at initiation, so without this credit back-to-back broadcasts from the
// same root could overwrite an unconsumed same-parity landing region).
type nbBcast2[T any] struct {
	nbBase
	root       int
	buf        []T
	co         *pgas.Coarray[T]
	cap_       int
	n, es      int
	leader     int
	rootLeader int
	group      []int
	phase      int
	sub        *nbBcast[T]
}

func newNBBcast2[T any](v *team.View, root int, buf []T) *nbBcast2[T] {
	n := len(buf)
	key := "bc2." + pgas.TypeName[T]()
	m := &nbBcast2[T]{
		root: root, buf: buf, n: n, es: pgas.ElemSize[T](),
		leader:     v.T.LeaderOf(v.Rank),
		rootLeader: v.T.LeaderOf(root),
		group:      v.T.NodeGroup(v.T.GroupOf(v.Rank)),
	}
	m.nbBase = newNBBase(v, getNBState(v, key, 7))
	// Same layout rule as BcastTwoLevel: one landing region per parity.
	m.co, m.cap_ = coll.Scratch[T](v, key, "nb", n, 2)
	return m
}

func (m *nbBcast2[T]) parity() int         { return int(m.ep % 2) }
func (m *nbBcast2[T]) dataRegion() int     { return m.parity() * m.cap_ }
func (m *nbBcast2[T]) ackSlot() int        { return 3 + m.parity() }
func (m *nbBcast2[T]) handoffAckSlot() int { return 5 + m.parity() }

// issueHandoff ships the non-leader root's payload to its node leader and
// completes the root's part of the episode.
func (m *nbBcast2[T]) issueHandoff() {
	t := m.v.T
	pgas.PutThenNotify(m.v.Img, m.co, t.GlobalRank(m.rootLeader), m.dataRegion(), m.buf, m.st.flags, 0, 1, pgas.ViaShm)
	m.finish()
	m.phase = b2Done
}

func (m *nbBcast2[T]) Blocked() (*pgas.Flags, int, int64) {
	if m.phase == b2LeaderSub {
		return m.sub.Blocked()
	}
	return m.nbBase.Blocked()
}

func (m *nbBcast2[T]) startSub() {
	t := m.v.T
	m.sub = newNBBcast(m.v, t.Leaders(), t.LeaderPos(m.v.Rank), t.LeaderPos(m.rootLeader), m.buf, "bc2lead", pgas.ViaConduit)
	m.phase = b2LeaderSub
}

// fanOut ships the payload to the intranode set (skipping the source, which
// already has it) and charges the ack credits the next same-parity episode
// will gate on.
func (m *nbBcast2[T]) fanOut() {
	me := m.v.Img
	t := m.v.T
	targets := 0
	for _, r := range m.group {
		if r == m.v.Rank || r == m.root {
			continue
		}
		pgas.PutThenNotify(me, m.co, t.GlobalRank(r), m.dataRegion(), m.buf, m.st.flags, 1, 1, pgas.ViaShm)
		targets++
	}
	m.st.ackExpect[m.parity()][m.v.Rank] += int64(targets)
}

func (m *nbBcast2[T]) Step() bool {
	me := m.v.Img
	t := m.v.T
	for {
		switch m.phase {
		case b2Gate:
			m.gate()
			if !m.ready() {
				return false
			}
			m.phase = b2Init
		case b2Init:
			if t.Size() == 1 {
				m.finish()
				m.phase = b2Done
				return true
			}
			if m.v.Rank == m.root && m.root != m.rootLeader {
				// Step 0: hand the payload to my node leader, gated on
				// the leader's ack for my previous same-parity handoff;
				// the source is then done (it keeps its own copy).
				m.st.sendExpect[m.parity()][m.v.Rank]++
				if sends := m.st.sendExpect[m.parity()][m.v.Rank]; sends > 1 {
					m.blockOn(m.handoffAckSlot(), sends-1)
					m.phase = b2HandoffGate
					continue
				}
				m.issueHandoff()
				return true
			}
			if m.v.Rank == m.rootLeader && m.root != m.rootLeader {
				m.st.expect0[m.v.Rank]++
				m.blockOn(0, m.st.expect0[m.v.Rank])
				m.phase = b2RootLeaderWait
				continue
			}
			if m.v.Rank == m.leader {
				m.startSub()
				continue
			}
			m.st.expect1[m.v.Rank]++
			m.blockOn(1, m.st.expect1[m.v.Rank])
			m.phase = b2MemberWait
		case b2HandoffGate:
			if !m.ready() {
				return false
			}
			m.issueHandoff()
			return true
		case b2RootLeaderWait:
			if !m.ready() {
				return false
			}
			copy(m.buf, pgas.Local(m.co, me)[m.dataRegion():m.dataRegion()+m.n])
			me.MemWork(m.es * m.n)
			me.NotifyAdd(m.st.flags, t.GlobalRank(m.root), m.handoffAckSlot(), 1, pgas.ViaShm)
			m.startSub()
		case b2LeaderSub:
			if !m.sub.Step() {
				return false
			}
			// Fan-out flow control: the intranode set must have consumed
			// the same-parity fan-out from two episodes ago.
			if gate := m.st.ackExpect[m.parity()][m.v.Rank]; gate > 0 {
				m.blockOn(m.ackSlot(), gate)
				m.phase = b2FanGate
				continue
			}
			m.fanOut()
			m.finish()
			m.phase = b2Done
			return true
		case b2FanGate:
			if !m.ready() {
				return false
			}
			m.fanOut()
			m.finish()
			m.phase = b2Done
			return true
		case b2MemberWait:
			if !m.ready() {
				return false
			}
			copy(m.buf, pgas.Local(m.co, me)[m.dataRegion():m.dataRegion()+m.n])
			me.MemWork(m.es * m.n)
			me.NotifyAdd(m.st.flags, t.GlobalRank(m.leader), m.ackSlot(), 1, pgas.ViaShm)
			m.finish()
			m.phase = b2Done
			return true
		default: // b2Done
			return true
		}
	}
}

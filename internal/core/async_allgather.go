package core

import (
	"fmt"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
)

// Split-phase allgather machines, decomposed from coll.AllgatherRing and
// AllgatherTwoLevel. As in the blocking versions, ring skew can reach n-1
// steps, so every ring step gets its own parity-indexed landing region.

// nbAgRing phases.
const (
	agGate = iota
	agInit
	agWaitStep // step-s block sent, waiting the incoming block
	agDone
)

// nbAgRing is the split-phase flat ring allgather over the whole team.
type nbAgRing[T any] struct {
	nbBase
	mine  []T
	out   []T
	via   pgas.Via
	co    *pgas.Coarray[T]
	cap_  int
	n, es int
	steps int
	s     int
	phase int
}

func newNBAgRing[T any](v *team.View, mine, out []T, via pgas.Via) *nbAgRing[T] {
	sz := v.NumImages()
	n := len(mine)
	if len(out) < sz*n {
		panic(fmt.Sprintf("core: allgather out %d < %d", len(out), sz*n))
	}
	steps := sz - 1
	key := "ag.ring." + via.String() + "." + pgas.TypeName[T]()
	m := &nbAgRing[T]{
		mine: mine, out: out, via: via, n: n, es: pgas.ElemSize[T](), steps: steps,
	}
	slots := steps
	if slots < 1 {
		slots = 1
	}
	m.nbBase = newNBBase(v, getNBState(v, key, slots))
	m.co, m.cap_ = coll.Scratch[T](v, key, "nb", n, 2*slots)
	return m
}

func (m *nbAgRing[T]) region(s int) int {
	return (int(m.ep%2)*m.steps + s) * m.cap_
}

// issueStep forwards the step-s block around the ring and records the
// incoming block as the blocking condition.
func (m *nbAgRing[T]) issueStep() {
	sz := m.v.NumImages()
	r := m.v.Rank
	next := m.v.T.GlobalRank((r + 1) % sz)
	sendB := ((r-m.s)%sz + sz) % sz
	reg := m.region(m.s)
	pgas.PutThenNotify(m.v.Img, m.co, next, reg, m.out[sendB*m.n:sendB*m.n+m.n], m.st.flags, m.s, 1, m.via)
	m.blockOn(m.s, m.ep)
}

func (m *nbAgRing[T]) Step() bool {
	me := m.v.Img
	sz := m.v.NumImages()
	for {
		switch m.phase {
		case agGate:
			m.gate()
			if !m.ready() {
				return false
			}
			m.phase = agInit
		case agInit:
			copy(m.out[m.v.Rank*m.n:], m.mine)
			if sz == 1 {
				m.finish()
				m.phase = agDone
				return true
			}
			m.s = 0
			m.issueStep()
			m.phase = agWaitStep
		case agWaitStep:
			if !m.ready() {
				return false
			}
			r := m.v.Rank
			recvB := ((r-m.s-1)%sz + sz) % sz
			reg := m.region(m.s)
			copy(m.out[recvB*m.n:recvB*m.n+m.n], pgas.Local(m.co, me)[reg:reg+m.n])
			me.MemWork(m.es * m.n)
			m.s++
			if m.s < m.steps {
				m.issueStep()
				continue
			}
			m.finish()
			m.phase = agDone
			return true
		default: // agDone
			return true
		}
	}
}

// nbAg2 phases.
const (
	g2Gate = iota
	g2Init
	g2SlaveWait  // slave waiting the leader's assembled fan-out
	g2LeaderWait // leader waiting the intranode contributions
	g2RingWait   // leader ring step in flight
	g2Done
)

// nbAg2 is the split-phase two-level allgather: intranode gather at the node
// leader over shared memory, a ring of whole node-blocks among the leaders
// over the conduit, and an intranode fan-out of the assembled vector.
// Flag layout: slot 0 intranode arrivals, slot 1 fan-out release, slots 2..
// the leaders' ring steps.
type nbAg2[T any] struct {
	nbBase
	mine       []T
	out        []T
	co         *pgas.Coarray[T] // every image: the assembled vector
	ring       *pgas.Coarray[T] // leaders: the ring-step landing regions
	cap_       int
	n, es      int
	full       int // per-parity assembled-vector span (cap_ * team size)
	stepRegion int // per-step landing span
	steps      int
	leader     int
	group      []int
	s          int
	phase      int
}

func newNBAg2[T any](v *team.View, mine, out []T) *nbAg2[T] {
	t := v.T
	sz := t.Size()
	n := len(mine)
	if len(out) < sz*n {
		panic(fmt.Sprintf("core: allgather out %d < %d", len(out), sz*n))
	}
	key := "ag2." + pgas.TypeName[T]()
	steps := len(t.Leaders()) - 1
	m := &nbAg2[T]{
		mine: mine, out: out, n: n, es: pgas.ElemSize[T](), steps: steps,
		leader: t.LeaderOf(v.Rank),
		group:  t.NodeGroup(t.GroupOf(v.Rank)),
	}
	m.nbBase = newNBBase(v, getNBState(v, key, 2+steps))
	// Same layout rule as AllgatherTwoLevel.
	m.co, m.cap_ = coll.Scratch[T](v, key, "nb", n, 2*sz)
	m.full = m.cap_ * sz
	m.stepRegion = m.cap_ * t.MaxNodeGroup()
	if steps > 0 {
		m.ring, _ = coll.Scratch[T](v, key, "nb.ring", n, 2*steps*t.MaxNodeGroup())
	}
	return m
}

// base returns the parity base offset of the assembled-vector area.
func (m *nbAg2[T]) base() int { return int(m.ep%2) * m.full }

// ringRegion returns the offset of ring step s's landing region for this
// episode's parity.
func (m *nbAg2[T]) ringRegion(s int) int {
	return (int(m.ep%2)*m.steps + s) * m.stepRegion
}

// issueRingStep packs and forwards one whole node block to the next leader.
func (m *nbAg2[T]) issueRingStep() {
	t := m.v.T
	me := m.v.Img
	leaders := t.Leaders()
	nLeaders := len(leaders)
	myPos := t.LeaderPos(m.v.Rank)
	next := t.GlobalRank(leaders[(myPos+1)%nLeaders])
	sendPos := ((myPos-m.s)%nLeaders + nLeaders) % nLeaders
	sendGroup := t.NodeGroup(sendPos)
	local := pgas.Local(m.co, me)
	pack := make([]T, len(sendGroup)*m.n)
	for i, r := range sendGroup {
		copy(pack[i*m.n:], local[m.base()+r*m.cap_:m.base()+r*m.cap_+m.n])
	}
	me.MemWork(m.es * len(pack))
	pgas.PutThenNotify(me, m.ring, next, m.ringRegion(m.s), pack, m.st.flags, 2+m.s, 1, pgas.ViaConduit)
	m.blockOn(2+m.s, m.ep)
	m.phase = g2RingWait
}

// finishLeader fans the assembled vector out to the intranode set and
// unpacks it into out.
func (m *nbAg2[T]) finishLeader() {
	t := m.v.T
	me := m.v.Img
	local := pgas.Local(m.co, me)
	for _, r := range m.group {
		if r == m.v.Rank {
			continue
		}
		pgas.PutThenNotify(me, m.co, t.GlobalRank(r), m.base(), local[m.base():m.base()+m.full], m.st.flags, 1, 1, pgas.ViaShm)
	}
	for r := 0; r < t.Size(); r++ {
		copy(m.out[r*m.n:r*m.n+m.n], local[m.base()+r*m.cap_:m.base()+r*m.cap_+m.n])
	}
	me.MemWork(m.es * m.n * t.Size())
	m.finish()
	m.phase = g2Done
}

func (m *nbAg2[T]) Step() bool {
	me := m.v.Img
	t := m.v.T
	for {
		switch m.phase {
		case g2Gate:
			m.gate()
			if !m.ready() {
				return false
			}
			m.phase = g2Init
		case g2Init:
			copy(m.out[m.v.Rank*m.n:], m.mine)
			if t.Size() == 1 {
				m.finish()
				m.phase = g2Done
				return true
			}
			if m.v.Rank != m.leader {
				pgas.PutThenNotify(me, m.co, t.GlobalRank(m.leader), m.base()+m.v.Rank*m.cap_, m.mine, m.st.flags, 0, 1, pgas.ViaShm)
				m.blockOn(1, m.ep)
				m.phase = g2SlaveWait
				continue
			}
			local := pgas.Local(m.co, me)
			copy(local[m.base()+m.v.Rank*m.cap_:m.base()+m.v.Rank*m.cap_+m.n], m.mine)
			if len(m.group) > 1 {
				m.blockOn(0, m.ep*int64(len(m.group)-1))
				m.phase = g2LeaderWait
				continue
			}
			if m.steps > 0 {
				m.s = 0
				m.issueRingStep()
				continue
			}
			m.finishLeader()
			return true
		case g2SlaveWait:
			if !m.ready() {
				return false
			}
			local := pgas.Local(m.co, me)
			for r := 0; r < t.Size(); r++ {
				copy(m.out[r*m.n:r*m.n+m.n], local[m.base()+r*m.cap_:m.base()+r*m.cap_+m.n])
			}
			me.MemWork(m.es * m.n * t.Size())
			m.finish()
			m.phase = g2Done
			return true
		case g2LeaderWait:
			if !m.ready() {
				return false
			}
			if m.steps > 0 {
				m.s = 0
				m.issueRingStep()
				continue
			}
			m.finishLeader()
			return true
		case g2RingWait:
			if !m.ready() {
				return false
			}
			nLeaders := m.steps + 1
			myPos := t.LeaderPos(m.v.Rank)
			recvPos := ((myPos-m.s-1)%nLeaders + nLeaders) % nLeaders
			recvGroup := t.NodeGroup(recvPos)
			local := pgas.Local(m.co, me)
			landed := pgas.Local(m.ring, me)[m.ringRegion(m.s):]
			for i, r := range recvGroup {
				copy(local[m.base()+r*m.cap_:m.base()+r*m.cap_+m.n], landed[i*m.n:i*m.n+m.n])
			}
			me.MemWork(m.es * len(recvGroup) * m.n)
			m.s++
			if m.s < m.steps {
				m.issueRingStep()
				continue
			}
			m.finishLeader()
			return true
		default: // g2Done
			return true
		}
	}
}

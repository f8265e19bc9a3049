package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
)

// Split-phase allreduce machines: the flat/subgroup recursive-doubling
// reduction and the two-level hierarchy-aware composition, decomposed from
// their blocking twins (coll.SubgroupAllreduceRD, AllreduceTwoLevel) into
// initiate/progress/complete steps. Protocol, flag discipline and combine
// order are identical to the blocking versions; only the waits are replaced
// by recorded conditions the progress engine polls.

// nbAllreduceRD phases.
const (
	rdGate = iota
	rdInit
	rdWaitExtra  // core member of a folded extra, waiting its contribution
	rdWaitRound  // round-k put issued, waiting the round-k arrival
	rdWaitResult // extra member waiting the folded-back result
	rdDone
)

// nbAllreduceRD is the split-phase recursive-doubling all-reduce over an
// arbitrary subgroup of a team (group lists team ranks, myIdx the caller's
// index). The two-level machine reuses it for its leader phase.
type nbAllreduceRD[T any] struct {
	nbBase
	group  []int
	myIdx  int
	buf    []T
	op     coll.Op[T]
	via    pgas.Via
	co     *pgas.Coarray[T] // core members: the rd rounds
	cap_   int
	fold   *pgas.Coarray[T] // core partners of extras: the folded-in contribution
	fcap   int
	res    *pgas.Coarray[T] // extras: the folded-back result
	rcap   int
	n, es  int
	p2     int
	extras int
	nr     int
	phase  int
	k      int
}

func newNBAllreduceRD[T any](v *team.View, group []int, myIdx int, buf []T, op coll.Op[T], alg string, via pgas.Via) *nbAllreduceRD[T] {
	g := len(group)
	n := len(buf)
	p2 := nbFloorPow2(g)
	nr := disseminationRounds(p2)
	key := alg + ".rd." + op.Name + "." + via.String() + "." + pgas.TypeName[T]()
	m := &nbAllreduceRD[T]{
		group: group, myIdx: myIdx, buf: buf, op: op, via: via,
		n: n, es: pgas.ElemSize[T](), p2: p2, extras: g - p2, nr: nr,
	}
	m.nbBase = newNBBase(v, getNBState(v, key, nr+2))
	// Same layout rule as coll.SubgroupAllreduceRD.
	if nr > 0 {
		m.co, m.cap_ = coll.Scratch[T](v, key, "nb", n, 2*nr)
	}
	m.fold, m.fcap = coll.Scratch[T](v, key, "nb.fold", n, 2)
	m.res, m.rcap = coll.Scratch[T](v, key, "nb.res", n, 2)
	return m
}

func (m *nbAllreduceRD[T]) global(idx int) int { return m.v.T.GlobalRank(m.group[idx]) }

// region returns the scratch offset of round k for this episode's parity.
func (m *nbAllreduceRD[T]) region(k int) int {
	return (int(m.ep%2)*m.nr + k) * m.cap_
}

// foldRegion and resultRegion return the offset of this episode's parity in
// the fold-in and result boxes.
func (m *nbAllreduceRD[T]) foldRegion() int   { return int(m.ep%2) * m.fcap }
func (m *nbAllreduceRD[T]) resultRegion() int { return int(m.ep%2) * m.rcap }

func (m *nbAllreduceRD[T]) slotExtra() int  { return m.nr }
func (m *nbAllreduceRD[T]) slotResult() int { return m.nr + 1 }

// issueRound sends this image's partial to its round-k partner and records
// the round-k arrival as the blocking condition.
func (m *nbAllreduceRD[T]) issueRound() {
	partner := m.myIdx ^ 1<<m.k
	pgas.PutThenNotify(m.v.Img, m.co, m.global(partner), m.region(m.k), m.buf, m.st.flags, m.k, 1, m.via)
	m.blockOn(m.k, m.ep)
}

func (m *nbAllreduceRD[T]) Step() bool {
	me := m.v.Img
	for {
		switch m.phase {
		case rdGate:
			m.gate()
			if !m.ready() {
				return false
			}
			m.phase = rdInit
		case rdInit:
			if len(m.group) == 1 {
				m.finish()
				m.phase = rdDone
				return true
			}
			switch {
			case m.myIdx >= m.p2:
				// Fold in: ship to the core partner, await the result.
				partner := m.myIdx - m.p2
				pgas.PutThenNotify(me, m.fold, m.global(partner), m.foldRegion(), m.buf, m.st.flags, m.slotExtra(), 1, m.via)
				m.blockOn(m.slotResult(), m.ep)
				m.phase = rdWaitResult
			case m.myIdx < m.extras:
				m.blockOn(m.slotExtra(), m.ep)
				m.phase = rdWaitExtra
			default:
				m.phase = rdWaitRound
				m.issueRound()
			}
		case rdWaitExtra:
			if !m.ready() {
				return false
			}
			off := m.foldRegion()
			m.op.Combine(m.buf, pgas.Local(m.fold, me)[off:off+m.n])
			me.MemWork(2 * m.es * m.n)
			m.phase = rdWaitRound
			m.issueRound()
		case rdWaitRound:
			if !m.ready() {
				return false
			}
			off := m.region(m.k)
			m.op.Combine(m.buf, pgas.Local(m.co, me)[off:off+m.n])
			me.MemWork(2 * m.es * m.n)
			m.k++
			if 1<<m.k < m.p2 {
				m.issueRound()
				continue
			}
			if m.myIdx < m.extras {
				// Fold out: return the result to my extra partner.
				pgas.PutThenNotify(me, m.res, m.global(m.myIdx+m.p2), m.resultRegion(), m.buf, m.st.flags, m.slotResult(), 1, m.via)
			}
			m.finish()
			m.phase = rdDone
			return true
		case rdWaitResult:
			if !m.ready() {
				return false
			}
			off := m.resultRegion()
			copy(m.buf, pgas.Local(m.res, me)[off:off+m.n])
			me.MemWork(m.es * m.n)
			m.finish()
			m.phase = rdDone
			return true
		default: // rdDone
			return true
		}
	}
}

// nbAllreduce2 phases.
const (
	a2Gate = iota
	a2Init
	a2SlaveWait  // slave waiting the leader's result release
	a2LeaderWait // leader waiting the intranode arrivals
	a2LeaderRD   // leader driving the inter-node RD sub-machine
	a2Done
)

// nbAllreduce2 is the split-phase two-level all-reduce: intranode gather at
// the node leader over shared memory, a recursive-doubling sub-machine among
// the leaders over the conduit, and an intranode release.
// Flag layout: slot 0 intranode arrivals, slot 1 the result release.
type nbAllreduce2[T any] struct {
	nbBase
	buf   []T
	op    coll.Op[T]
	inbox *pgas.Coarray[T] // leaders: one region per intranode position
	icap  int
	res   *pgas.Coarray[T] // members: the result landing region
	rcap  int
	phase int
	sub   *nbAllreduceRD[T]
}

func newNBAllreduce2[T any](v *team.View, buf []T, op coll.Op[T]) *nbAllreduce2[T] {
	n := len(buf)
	key := "red2." + op.Name + "." + pgas.TypeName[T]()
	m := &nbAllreduce2[T]{buf: buf, op: op}
	m.nbBase = newNBBase(v, getNBState(v, key, 2))
	// Same layout rule as AllreduceTwoLevel.
	m.inbox, m.icap = coll.Scratch[T](v, key, "nb.in", n, 2*v.T.MaxNodeGroup())
	m.res, m.rcap = coll.Scratch[T](v, key, "nb.res", n, 2)
	return m
}

func (m *nbAllreduce2[T]) region(k int) int {
	return (int(m.ep%2)*m.v.T.MaxNodeGroup() + k) * m.icap
}

func (m *nbAllreduce2[T]) resultRegion() int { return int(m.ep%2) * m.rcap }

// Blocked delegates to the leader sub-machine while it is driving.
func (m *nbAllreduce2[T]) Blocked() (*pgas.Flags, int, int64) {
	if m.phase == a2LeaderRD {
		return m.sub.Blocked()
	}
	return m.nbBase.Blocked()
}

// startSub enters the inter-node phase among the leaders.
func (m *nbAllreduce2[T]) startSub() {
	t := m.v.T
	m.sub = newNBAllreduceRD(m.v, t.Leaders(), t.LeaderPos(m.v.Rank), m.buf, m.op, "red2lead", pgas.ViaConduit)
	m.phase = a2LeaderRD
}

func (m *nbAllreduce2[T]) Step() bool {
	me := m.v.Img
	t := m.v.T
	// Derived per step rather than stored: one machine is allocated per
	// image per episode, so its size is per-episode garbage.
	leader := t.LeaderOf(m.v.Rank)
	group := t.NodeGroup(t.GroupOf(m.v.Rank))
	n, es := len(m.buf), pgas.ElemSize[T]()
	for {
		switch m.phase {
		case a2Gate:
			m.gate()
			if !m.ready() {
				return false
			}
			m.phase = a2Init
		case a2Init:
			if t.Size() == 1 {
				m.finish()
				m.phase = a2Done
				return true
			}
			if m.v.Rank != leader {
				// Slave: contribute to the leader's inbox slot.
				slot := slotIn(group, m.v.Rank)
				pgas.PutThenNotify(me, m.inbox, t.GlobalRank(leader), m.region(slot), m.buf, m.st.flags, 0, 1, pgas.ViaShm)
				m.blockOn(1, m.ep)
				m.phase = a2SlaveWait
				continue
			}
			if len(group) > 1 {
				m.blockOn(0, m.ep*int64(len(group)-1))
				m.phase = a2LeaderWait
				continue
			}
			m.startSub()
		case a2SlaveWait:
			if !m.ready() {
				return false
			}
			off := m.resultRegion()
			copy(m.buf, pgas.Local(m.res, me)[off:off+n])
			me.MemWork(es * n)
			m.finish()
			m.phase = a2Done
			return true
		case a2LeaderWait:
			if !m.ready() {
				return false
			}
			local := pgas.Local(m.inbox, me)
			for i, r := range group {
				if r == m.v.Rank {
					continue
				}
				off := m.region(i)
				m.op.Combine(m.buf, local[off:off+n])
				me.MemWork(2 * es * n)
			}
			m.startSub()
		case a2LeaderRD:
			if !m.sub.Step() {
				return false
			}
			// Release the result to the intranode set.
			for _, r := range group {
				if r == m.v.Rank {
					continue
				}
				pgas.PutThenNotify(me, m.res, t.GlobalRank(r), m.resultRegion(), m.buf, m.st.flags, 1, 1, pgas.ViaShm)
			}
			m.finish()
			m.phase = a2Done
			return true
		default: // a2Done
			return true
		}
	}
}

package coll

import (
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// scanTag keys the per-form state: inclusive and exclusive scans of the
// same op are distinct collectives and must not share episodes or regions.
func scanTag(exclusive bool) string {
	if exclusive {
		return "excl"
	}
	return "incl"
}

// ScanLinear is the chain prefix reduction (MPI_Scan/MPI_Exscan semantics
// over team rank order): member r receives the prefix over ranks [0, r)
// from its predecessor, combines its own vector, and forwards the inclusive
// prefix to rank r+1. Linear depth, one message per chain edge — the
// centralized counterpart of the log-depth ScanRD.
//
// Inclusive: buf ends as the reduction over ranks [0, r]. Exclusive: buf
// ends as the reduction over [0, r) — rank 0's buf is left unchanged.
//
// The chain has no downstream-to-upstream data flow, so region reuse is
// credit-gated: a member acks its predecessor after consuming and a sender
// may not ship a same-parity prefix before the previous one was acked.
//
// Flag layout: slot 0 arrivals, slots 2-3 parity credits.
func ScanLinear[T any](v *team.View, buf []T, op Op[T], exclusive bool) {
	sz := v.NumImages()
	n := len(buf)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpReduce)
	if sz == 1 {
		return
	}
	st := GetState(v, Alg{"scan.lin", op.Name, scanTag(exclusive), tag[T]()}, 4)
	st.Next()
	box := NewBox[T](st, scanTag(exclusive), n, 1)
	creditSlot := 2 + st.parity()
	me := v.Img
	r := v.Rank
	var fwd []T // the inclusive prefix over [0, r], shipped to r+1
	if r == 0 {
		fwd = buf
	} else {
		st.Arrivals(0, 1)
		in := box.Landed(0, 0, n) // prefix over [0, r)
		if exclusive {
			if r < sz-1 {
				fwd = Temp[T](st, "fwd", n)
				copy(fwd, in)
				op.Combine(fwd, buf)
				me.MemWork(3 * es * n)
			}
			copy(buf, in)
			me.MemWork(es * n)
		} else {
			op.Combine(buf, in)
			me.MemWork(2 * es * n)
			fwd = buf
		}
	}
	if r < sz-1 {
		// Gate on the credit for my previous same-parity send.
		st.Gate(creditSlot, 1)
		box.Put(r+1, 0, fwd, 0, pgas.ViaConduit)
	}
	if r > 0 {
		st.Notify(r-1, creditSlot, pgas.ViaConduit)
	}
}

// ScanRD is the distance-doubling (Hillis-Steele) prefix reduction:
// ceil(log2 n) rounds, in round k member r ships its running partial to
// r+2^k and folds in the partial arriving from r−2^k, so after the last
// round every member holds the inclusive prefix over [0, r]. The exclusive
// form appends one shift step: each member forwards its inclusive prefix to
// its successor, which adopts it (rank 0's buf is left unchanged).
//
// Low ranks wait on few or no arrivals (rank 0 on none), so nothing
// implicit stops a fast sender from racing episodes ahead; every round and
// the shift carry the standard parity credit (receiver acks after folding,
// sender gates its next same-parity send on the previous ack).
//
// Flag layout: slots [0, rounds) round arrivals; slot rounds+2·k+parity the
// round-k credit; slot 3·rounds the shift arrival; slots 3·rounds+1/+2 the
// shift credits.
func ScanRD[T any](v *team.View, buf []T, op Op[T], exclusive bool) {
	sz := v.NumImages()
	n := len(buf)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpReduce)
	if sz == 1 {
		return
	}
	nr := Rounds(sz)
	st := GetState(v, Alg{"scan.rd", op.Name, scanTag(exclusive), tag[T]()}, 3*nr+3)
	st.Next()
	box := NewBox[T](st, scanTag(exclusive), n, nr)
	parity := st.parity()
	me := v.Img
	r := v.Rank
	acc := Temp[T](st, "acc", n) // running partial over [max(0, r−2^k+1), r]
	copy(acc, buf)
	me.MemWork(es * n)
	for k := 0; 1<<k < sz; k++ {
		ackSlot := nr + 2*k + parity
		if r+1<<k < sz {
			st.Gate(ackSlot, 1)
			box.Put(r+1<<k, k, acc, k, pgas.ViaConduit)
		}
		if r-1<<k >= 0 {
			st.Arrivals(k, 1)
			op.Combine(acc, box.Landed(k, 0, n))
			me.MemWork(2 * es * n)
			st.Notify(r-1<<k, ackSlot, pgas.ViaConduit)
		}
	}
	if !exclusive {
		copy(buf, acc)
		me.MemWork(es * n)
		return
	}
	// Shift the inclusive prefixes down by one rank, through a box of its
	// own.
	shift := NewBox[T](st, "shift", n, 1)
	shiftSlot := 3 * nr
	shiftAck := 3*nr + 1 + parity
	if r+1 < sz {
		st.Gate(shiftAck, 1)
		shift.Put(r+1, 0, acc, shiftSlot, pgas.ViaConduit)
	}
	if r > 0 {
		st.Arrivals(shiftSlot, 1)
		shift.Take(0, buf)
		st.Notify(r-1, shiftAck, pgas.ViaConduit)
	}
}

// SubgroupExscan is the pairwise-exchange recursive-doubling exclusive prefix
// reduction (MPICH's MPI_Exscan: Thakur, Rabenseifner, Gropp 2005) over an
// arbitrary subgroup of a team, in group order. group lists the participating
// team ranks; myIdx is the caller's index within group. ceil(log2 g) rounds: in
// round k the caller exchanges running totals with the member at index
// myIdx XOR 2^k — the total of its 2^k-aligned subcube, as far as the group
// reaches — and a total arriving from a lower index is also folded into the
// caller's exclusive prefix. A partner past the end of the group is skipped, so
// any g works: what such a round would have brought lies above the caller and
// above everyone the caller still sends to.
//
// total is the caller's contribution and is consumed (it is the running
// subcube total). ex receives the reduction over group[0:myIdx]; index 0 has
// none, its ex is left alone and the call returns false.
//
// Every round is an exchange, so the stage synchronises itself the way
// SubgroupAllreduceRD does — a member's round-k put of episode e+2 follows its
// partner's round-k put of e+1, which followed the partner's fold of e — and
// carries no credits. (It also makes every member wait for the whole group,
// where a chain's head waits for nobody: internal/core runs it among its node
// leaders only above a measured number of them.)
//
// Flag layout: slots [0, rounds) round arrivals.
func SubgroupExscan[T any](v *team.View, group []int, myIdx int, total, ex []T, op Op[T], alg Alg) bool {
	g := len(group)
	if g == 1 {
		return false
	}
	n := len(total)
	es := pgas.ElemSize[T]()
	nr := Rounds(g)
	st := GetState(v, alg.With("xscan", op.Name, tag[T]()), nr)
	st.Next()
	box := NewBox[T](st, "", n, nr)
	me := v.Img
	have := false
	for k := 0; 1<<k < g; k++ {
		partner := myIdx ^ 1<<k
		if partner >= g {
			continue
		}
		box.Put(group[partner], k, total, k, pgas.ViaConduit)
		st.Arrivals(k, 1)
		in := box.Landed(k, 0, n)
		if partner < myIdx {
			if have {
				op.Combine(ex, in)
				me.MemWork(2 * es * n)
			} else {
				box.Take(k, ex)
				have = true
			}
		}
		if k+1 < nr { // the last round's total goes nowhere
			op.Combine(total, in)
			me.MemWork(2 * es * n)
		}
	}
	return have
}

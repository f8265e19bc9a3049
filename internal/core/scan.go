package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// Flag slots of the two-level scan: parity vector arrivals at a leader,
// parity chain arrivals at a leader (from the predecessor leader), parity
// result arrivals at a member, parity inbox credits (leader→member), parity
// chain credits (successor→predecessor leader), and parity result acks
// (member→leader).
const (
	scan2InboxSlot   = 0 // +parity
	scan2ChainSlot   = 2
	scan2ResultSlot  = 4
	scan2InboxCredit = 6
	scan2ChainCredit = 8
	scan2ResultAck   = 10
	scan2Slots       = 12
)

// ScanTwoLevel is the hierarchy-aware prefix reduction over team rank order
// (inclusive: buf becomes the reduction over ranks [0, r]; exclusive: over
// [0, r), rank 0's buf left unchanged):
//
//	Step 1: each intranode set ships its vectors to the node leader over
//	        shared memory; the leader computes the within-node prefixes
//	        and the node total;
//	Step 2: the leaders run an exclusive scan of node totals along the
//	        rank-ordered leader chain over the network — one message per
//	        adjacent node pair instead of a full flat schedule;
//	Step 3: each leader folds its node-exclusive prefix into the member
//	        prefixes and ships the results back over shared memory.
//
// The decomposition requires every intranode set to be contiguous in team
// rank order (true for the default block placements the paper benchmarks);
// on interleaved placements (e.g. cyclic) it falls back to the flat
// recursive-doubling scan, which is placement-oblivious.
func ScanTwoLevel[T any](v *team.View, buf []T, op coll.Op[T], exclusive bool) {
	t := v.T
	sz := t.Size()
	if _, contiguous := t.RankChain(); !contiguous {
		coll.ScanRD(v, buf, op, exclusive) // counts the operation itself
		return
	}
	v.Img.World().Stats().Count(trace.OpReduce)
	if sz == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	form := "incl" // the two forms must not share episodes or regions
	if exclusive {
		form = "excl"
	}
	st := coll.GetState(v, coll.Alg{"scan2", op.Name, form, pgas.TypeName[T]()}, scan2Slots)
	parity := int(st.Next() % 2)
	mg := t.MaxNodeGroup()
	// Two boxes: a leader's inbox (one vector per group position, then the
	// chain landing region) and a member's result landing region.
	inbox := coll.NewBox[T](st, "in", n, mg+1)
	resBox := coll.NewBox[T](st, "res", n, 1)
	me := v.Img
	leader := t.LeaderOf(v.Rank)
	group := t.NodeGroup(t.GroupOf(v.Rank))
	gsz := len(group)

	if v.Rank != leader {
		// Contribute my vector, gated on the credit for my previous
		// same-parity contribution; then collect my prefix and ack it.
		st.Gate(scan2InboxCredit+parity, 1)
		inbox.Put(leader, groupPos(group, v.Rank), buf, scan2InboxSlot+parity, pgas.ViaShm)
		resBox.Land(scan2ResultSlot+parity, buf, leader, scan2ResultAck+parity, pgas.ViaShm)
		return
	}

	// Leader (= the group's lowest team rank, so under the contiguity
	// requirement the team's rank 0 is always a leader).
	if gsz > 1 {
		st.Arrivals(scan2InboxSlot+parity, gsz-1)
	}
	// Within-node inclusive prefixes, in group (= team rank) order.
	incl := coll.Temp[T](st, "incl", gsz*n)
	acc := coll.Temp[T](st, "acc", n)
	copy(acc, buf)
	copy(incl[:n], acc)
	me.MemWork(2 * es * n)
	for j := 1; j < gsz; j++ {
		op.Combine(acc, inbox.Region(j)[:n])
		copy(incl[j*n:(j+1)*n], acc)
		me.MemWork(3 * es * n)
	}
	// The inbox is consumed: credit the contributors.
	for _, r := range group[1:] {
		me.NotifyAdd(st.Flags, t.GlobalRank(r), scan2InboxCredit+parity, 1, pgas.ViaShm)
	}
	// Exclusive scan of node totals along the rank-ordered leader chain. The
	// groups tile the rank range, so my predecessor in the chain leads the
	// rank below my group and my successor is the rank above it.
	var ex []T // reduction over every preceding node's total; nil at the head
	if first := group[0]; first > 0 {
		st.Arrivals(scan2ChainSlot+parity, 1)
		ex = coll.Temp[T](st, "ex", n)
		inbox.Take(mg, ex)
		me.NotifyAdd(st.Flags, t.GlobalRank(t.LeaderOf(first-1)), scan2ChainCredit+parity, 1, pgas.ViaAuto)
	}
	if next := group[gsz-1] + 1; next < sz {
		fwd := acc // node total, already the running prefix over my groups
		if ex != nil {
			fwd = coll.Temp[T](st, "fwd", n)
			copy(fwd, ex)
			op.Combine(fwd, acc)
			me.MemWork(3 * es * n)
		}
		// Gate on the successor's credit for my previous same-parity send.
		st.Gate(scan2ChainCredit+parity, 1)
		inbox.Put(next, mg, fwd, scan2ChainSlot+parity, pgas.ViaAuto)
	}
	// Fold the node-exclusive prefix into each member's result and deliver,
	// gated on the acks for the previous same-parity fan-out. One result
	// buffer serves every member: a put captures its payload at issue.
	fold := func(withinIncl []T) []T {
		if ex == nil {
			return withinIncl
		}
		res := coll.Temp[T](st, "res", n)
		copy(res, ex)
		op.Combine(res, withinIncl)
		me.MemWork(3 * es * n)
		return res
	}
	fanOut(v, st, resBox, group, -1, scan2ResultAck+parity, scan2ResultSlot+parity, func(j, r int) []T {
		var res []T
		switch {
		case !exclusive:
			res = fold(incl[j*n : (j+1)*n])
		case j == 0:
			res = ex // nil at the team's rank 0: buf stays unchanged
		default:
			res = fold(incl[(j-1)*n : j*n])
		}
		if r == v.Rank && res != nil {
			copy(buf, res)
			me.MemWork(es * n)
		}
		return res
	})
}

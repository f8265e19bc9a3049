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
// (member→leader). The chain slots idle when the leaders' stage is the
// log-depth exchange, which has a state of its own.
const (
	scan2InboxSlot   = 0 // +parity
	scan2ChainSlot   = 2
	scan2ResultSlot  = 4
	scan2InboxCredit = 6
	scan2ChainCredit = 8
	scan2ResultAck   = 10
	scan2Slots       = 12
)

// logDepthLeaders is the number of node leaders from which ScanTwoLevel's
// exclusive scan of node totals is the log-depth coll.SubgroupExscan and no
// longer the leader chain. The crossover is real, and measured in three-episode
// cells like the benchmark's (CHANGES.md, PR 22, prints the sweep): a chain's
// head node waits for nobody and its episodes pipeline, an exchange makes every
// leader wait for the whole team. At 8 images per node and 128 elements the
// chain is 1.3–1.4× faster at 4 and 8 leaders, the two tie at 17 and 18 (59.9 vs
// 60.8, 62.3 vs 62.6 µs/op) and the exchange is 1.14× faster at 24, 2× at 64,
// 26× at 512; at 4096 elements or one image per node the lines cross between 8
// and 16. 17 is the conservative end of that: from it up no swept shape loses
// more than 2 %.
const logDepthLeaders = 17

// ScanTwoLevel is the hierarchy-aware prefix reduction over team rank order
// (inclusive: buf becomes the reduction over ranks [0, r]; exclusive: over
// [0, r), rank 0's buf left unchanged):
//
//	Step 1: each intranode set ships its vectors to the node leader over
//	        shared memory; the leader computes the node total;
//	Step 2: the leaders run an exclusive scan of node totals, in rank order,
//	        over the network: from logDepthLeaders node leaders up the
//	        pairwise-exchange recursive doubling of coll.SubgroupExscan
//	        (ceil(log2 nodes) rounds), below it the leader chain — one message
//	        per adjacent node pair, the head node waiting for nobody;
//	Step 3: each leader folds the members' vectors, in rank order, onto its
//	        node-exclusive prefix in one running buffer and ships each
//	        member its result over shared memory as the fold reaches it.
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
	form := "incl" // the two forms must not share episodes or regions
	if exclusive {
		form = "excl"
	}
	st := coll.GetState(v, coll.Alg{"scan2", op.Name, form, pgas.TypeName[T]()}, scan2Slots)
	parity := int(st.Next() % 2)
	// Two boxes: a leader's inbox (one vector per group position, then the
	// chain landing region) and a member's result landing region.
	inbox := coll.NewBox[T](st, "in", n, t.MaxNodeGroup()+1)
	resBox := coll.NewBox[T](st, "res", n, 1)
	leader := t.LeaderOf(v.Rank)
	if v.Rank == leader {
		scanTwoLevelLead(v, st, inbox, resBox, buf, op, form, parity)
		return
	}
	// Contribute my vector, gated on the credit for my previous same-parity
	// contribution; then collect my prefix and ack it.
	st.Gate(scan2InboxCredit+parity, 1)
	inbox.Put(leader, groupPos(t.NodeGroup(t.GroupOf(v.Rank)), v.Rank), buf, scan2InboxSlot+parity, pgas.ViaShm)
	resBox.Land(scan2ResultSlot+parity, buf, leader, scan2ResultAck+parity, pgas.ViaShm)
}

// scanTwoLevelLead is a node leader's part of ScanTwoLevel (the leader is its
// group's lowest team rank, so under the contiguity requirement the team's rank
// 0 is always one). A function of its own so that the seven members in eight
// carry none of its frame: their put chain ends within a few hundred bytes of
// the 4 KB stack (TestStackBudget).
//
//go:noinline
func scanTwoLevelLead[T any](v *team.View, st *coll.State, inbox, resBox coll.Box[T], buf []T, op coll.Op[T], form string, parity int) {
	t, me := v.T, v.Img
	sz, n, mg := t.Size(), len(buf), t.MaxNodeGroup()
	es := pgas.ElemSize[T]()
	exclusive := form == "excl"
	group := t.NodeGroup(t.GroupOf(v.Rank))
	gsz := len(group)
	// The node total, straight from the members' vectors in the inbox.
	acc := coll.Temp[T](st, "acc", n)
	copy(acc, buf)
	me.MemWork(es * n)
	if gsz > 1 {
		st.Arrivals(scan2InboxSlot+parity, gsz-1)
		for j := 1; j < gsz; j++ {
			op.Combine(acc, inbox.Region(j)[:n])
			me.MemWork(2 * es * n)
		}
	}
	// Exclusive scan of node totals among the leaders, in rank order.
	var ex []T // reduction over every preceding node's total; nil at the head
	if leaders := t.RankLeaders(); len(leaders) >= logDepthLeaders {
		// Pairwise exchange, log-depth (it spends acc).
		x := coll.Temp[T](st, "ex", n)
		if coll.SubgroupExscan(v, leaders, t.ChainPos(t.GroupOf(v.Rank)), acc, x, op, coll.Alg{"core.scan2lead", form}) {
			ex = x
		}
	} else {
		// Along the leader chain, the head waiting for nobody. The groups tile
		// the rank range, so my predecessor in the chain leads the rank below
		// my group and my successor is the rank above it.
		if first := group[0]; first > 0 {
			st.Arrivals(scan2ChainSlot+parity, 1)
			ex = coll.Temp[T](st, "ex", n)
			inbox.Take(mg, ex)
			st.Notify(t.LeaderOf(first-1), scan2ChainCredit+parity, pgas.ViaAuto)
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
	}
	// Fold the vectors, in group order — v(0) mine, v(j) member j's in the
	// inbox — into one running prefix run = ex ⊕ v(0) ⊕ … ⊕ v(j) and deliver
	// it as it grows, gated on the acks for the previous same-parity fan-out:
	// position j's inclusive result is run with v(j) folded in, its exclusive
	// one run before. One buffer serves every member: a put captures its
	// payload at issue.
	run := coll.Temp[T](st, "run", n)
	fold := func(j int) {
		switch {
		case j > 0:
			op.Combine(run, inbox.Region(j)[:n])
			me.MemWork(2 * es * n)
		case ex == nil:
			copy(run, buf)
			me.MemWork(es * n)
		default:
			copy(run, ex)
			op.Combine(run, buf)
			me.MemWork(3 * es * n)
		}
	}
	fanOut(v, st, resBox, group, -1, scan2ResultAck+parity, scan2ResultSlot+parity, 0, func(j, _ int) []T {
		if !exclusive {
			fold(j)
			if j == 0 && ex != nil {
				copy(buf, run)
				me.MemWork(es * n)
			}
		} else if j > 0 {
			fold(j - 1)
		}
		return run
	})
	// The fold has read the inbox: credit the contributors.
	for _, r := range group[1:] {
		st.Notify(r, scan2InboxCredit+parity, pgas.ViaShm)
	}
	// My own exclusive result last: the fold needed my vector.
	if exclusive && ex != nil { // nil at the team's rank 0: buf stays unchanged
		copy(buf, ex)
		me.MemWork(es * n)
	}
}

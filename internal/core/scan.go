package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// Flag slots of the two-level scan. Whole vectors: parity vector arrivals at a
// leader, parity result arrivals at a member, parity inbox credits
// (leader→member) and parity result acks (member→leader). By slices: the
// leader's node-total slice arrivals, a member's prefix-slice arrival and its
// result-slice arrivals, then one slice arrival slot per group position of the
// sender. The leaders' chain has a state of its own (scanChain), and so has the
// log-depth exchange: neither grows a member's row.
const (
	scan2InboxSlot   = 0 // +parity
	scan2ResultSlot  = 2
	scan2InboxCredit = 4
	scan2ResultAck   = 6
	scan2Total       = 8
	scan2Prefix      = 9
	scan2SliceResult = 10
	scan2Slice       = 11 // + the sender's group position
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

// scanSliceBytes and scanVectorBytes are the measured crossover (three-episode
// cells; CHANGES.md has the sweep) from which ScanTwoLevel's node stage runs
// by slices on every core: in groups of three or more, from vectors of
// scanVectorBytes and slices of scanSliceBytes — the vector's bytes over the
// group's size — up. Below it the leader alone combines and folds the whole
// vectors: the per-slice puts and waits, and the hop that hands each member
// its prefix slice, cost more than the combines they share out. The vector
// bound comes from the groups of three and four on eight and sixteen nodes
// (24(8) at 512 elements: 1.09× the whole-vector stage, at 640: 0.86×), the
// slice bound from the groups of sixteen (256(16) at 640: 1.03×, at 768:
// 0.97×). A pair never slices.
const (
	scanSliceBytes  = 384
	scanVectorBytes = 5 << 10
)

// scanSliced reports whether a group of g runs ScanTwoLevel's node stage on
// n-element vectors of es-byte elements by slices: the same on every member
// of the group.
func scanSliced(g, n, es int) bool {
	return g > 2 && n*es >= scanVectorBytes && n*es/g >= scanSliceBytes
}

// chainSegBytes and maxChainSegs size the segments in which a vector travels
// ScanTwoLevel's leaders' chain (three-episode cells; CHANGES.md has the
// sweep): on a team where some node hosts more than two images, a vector of
// more than chainSegBytes travels in segments of about that size, at most
// maxChainSegs of them, so that a leader forwards each segment as soon as it
// has combined it while the next is on the wire. Every hop then costs one
// segment's latency rather than the whole vector's. 4 KiB segments lost up to
// 0.8 % to whole vectors just above one segment, 16 KiB ones gave up part of
// the gain. Teams of pairs and of one image per node still send every vector
// whole (ROADMAP item 9 has what segments would gain there).
const (
	chainSegBytes = 8 << 10
	maxChainSegs  = 16
)

// chainSegments returns how many segments an n-element vector of es-byte
// elements travels ScanTwoLevel's chain in on team t: the same on every
// leader.
func chainSegments(t *team.Team, n, es int) int {
	if t.MaxNodeGroup() <= 2 {
		return 1
	}
	return max(1, min((n*es+chainSegBytes-1)/chainSegBytes, maxChainSegs))
}

// ScanTwoLevel is the hierarchy-aware prefix reduction over team rank order
// (inclusive: buf becomes the reduction over ranks [0, r]; exclusive: over
// [0, r), rank 0's buf left unchanged):
//
//	Step 1: the node total. Each intranode set ships its vectors to the node
//	        leader over shared memory and the leader combines them; or, for
//	        large vectors in groups of three or more (scanSliced), every
//	        member combines one slice of the group's vectors and ships the
//	        node total's slice to the leader;
//	Step 2: the leaders run an exclusive scan of node totals, in rank order,
//	        over the network: from logDepthLeaders node leaders up the
//	        pairwise-exchange recursive doubling of coll.SubgroupExscan
//	        (ceil(log2 nodes) rounds), below it the leader chain — one message
//	        per adjacent node pair and segment (chainSegments), the head node
//	        waiting for nobody;
//	Step 3: the fold of the members' vectors, in rank order, onto the node's
//	        exclusive prefix. Whole vectors: the leader folds in one running
//	        buffer and ships each member its result over shared memory as the
//	        fold reaches it. By slices: the leader hands member j slice j of the
//	        prefix, and member j folds slice j of every vector onto it and puts
//	        each member its result slice.
//
// The decomposition requires every intranode set to be a run of consecutive
// team ranks (Team.Contiguous: true for the block placements the paper
// benchmarks, whichever way the node ids run); on interleaved placements
// (e.g. cyclic) it falls back to the flat recursive-doubling scan, which is
// placement-oblivious.
//
// Flag layout: the scan2* slots above, one row per image; the chain's and the
// exchange's slots on leaders-only states of their own.
func ScanTwoLevel[T any](v *team.View, buf []T, op coll.Op[T], exclusive bool) {
	t := v.T
	sz := t.Size()
	if !t.Contiguous() {
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
	st := coll.GetState(v, coll.Alg{"scan2", op.Name, form, pgas.TypeName[T]()}, scan2Slice+t.MaxNodeGroup())
	parity := st.Next()
	if scanSliced(len(t.NodeGroup(t.GroupOf(v.Rank))), n, pgas.ElemSize[T]()) {
		scanSlices(v, st, buf, op, form)
		return
	}
	// Two boxes: a leader's inbox (one vector per group position) and a
	// member's result landing region.
	inbox := coll.NewBox[T](st, "in", n, t.MaxNodeGroup())
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

// scanTwoLevelLead is a node leader's part of ScanTwoLevel's whole-vector node
// stage (the leader is its group's lowest team rank, so under the contiguity
// requirement the team's rank 0 is always one). A function of its own so that
// the seven members in eight carry none of its frame: their put chain ends
// within a few hundred bytes of the 4 KB stack (TestStackBudget).
//
//go:noinline
func scanTwoLevelLead[T any](v *team.View, st *coll.State, inbox, resBox coll.Box[T], buf []T, op coll.Op[T], form string, parity int) {
	me := v.Img
	group := v.T.NodeGroup(v.T.GroupOf(v.Rank))
	n, gsz := len(buf), len(group)
	es := pgas.ElemSize[T]()
	exclusive := form == "excl"
	// The node total, straight from the members' vectors in the inbox.
	acc := coll.Temp[T](st, "acc", n)
	copy(acc, buf)
	me.MemWork(es * n)
	if gsz > 1 {
		st.Arrivals(scan2InboxSlot+parity, gsz-1)
		for j := 1; j < gsz; j++ {
			op.Combine(acc, inbox.Landed(j, 0, n))
			me.MemWork(2 * es * n)
		}
	}
	ex := scanLeaders(v, st, acc, op, group, form)
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
			op.Combine(run, inbox.Landed(j, 0, n))
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

// scanSlices is ScanTwoLevel's node stage by slices, run by every member of
// the group (a frame of its own, like combineSlices). Member i puts slice j of
// its vector (sliceOf's cut) to member j in shifted order, j = i+1, i+2, …;
// member j combines slice j of every vector into slice j of the node total, as
// each sender's lands, and ships it to the leader, which runs the leaders'
// stage on the assembled total and hands member j slice j of the node's
// exclusive prefix (on the head node there is none, and its members go on at
// once). Member j then folds slice j of every vector onto its prefix slice, in
// rank order, and puts each member its result slice as the fold reaches it;
// every member takes its result once all g−1 other slices landed. Rank 0's
// exclusive result is its own vector: nothing is sent to it.
//
// Flow control is proved by the data flow, so no credit is sent. A member
// writes another's node-total, prefix or result region only after it has
// waited for that member's slice of the same episode, which the member sent
// once it had finished the episode before: those regions are one fixed half
// each. The slice regions are written first thing, so they have two halves:
// the sender's next write to the same half follows its wait for the
// receiver's slice of the episode in between. (One half would do for the
// inclusive form, where member j puts member i its result only after it read
// i's slice; in the exclusive form it puts it before.) The arrival slots need
// no parity: a sender's next message on each of them follows a wait for a
// message the receiver sent after its last wait on that slot.
//
//go:noinline
func scanSlices[T any](v *team.View, st *coll.State, buf []T, op coll.Op[T], form string) {
	me, mg := v.Img, v.T.MaxNodeGroup()
	group := v.T.NodeGroup(v.T.GroupOf(v.Rank))
	g, n, es := len(group), len(buf), pgas.ElemSize[T]()
	pos, leader := groupPos(group, v.Rank), group[0]
	exclusive, head := form == "excl", leader == 0
	per := (n + g - 1) / g // sliceOf's longest slice
	in := coll.NewBox[T](st, "slice", per, mg)
	tot := coll.NewFixedBox[T](st, "total", n, 1)
	pre := coll.NewFixedBox[T](st, "prefix", per, 1)
	res := coll.NewFixedBox[T](st, "sres", n, 1)
	for k := 1; k < g; k++ {
		j := (pos + k) % g
		sl, _ := sliceOf(buf, j, g)
		in.Put(group[j], pos, sl, scan2Slice+pos, pgas.ViaShm)
	}
	mine, off := sliceOf(buf, pos, g)
	k := len(mine)
	slice := func(i int) []T { // slice pos of member i's vector
		if i == pos {
			return mine
		}
		return in.Landed(i, 0, k)
	}
	// Slice pos of the node total: the leader's straight into its total
	// region, a member's staged and shipped to it.
	var total []T
	if v.Rank == leader {
		total = tot.Region(0)[off : off+k]
	} else {
		total = coll.Temp[T](st, "total", k)
	}
	copy(total, mine)
	me.MemWork(es * k)
	for d := 1; d < g; d++ {
		i := (pos - d + g) % g
		st.Arrivals(scan2Slice+i, 1)
		op.Combine(total, slice(i))
		me.MemWork(2 * es * k)
	}
	var ex []T // slice pos of the node's exclusive prefix; nil on the head node
	if v.Rank == leader {
		st.Arrivals(scan2Total, g-1)
		if whole := scanLeaders(v, st, tot.Landed(0, 0, n), op, group, form); whole != nil {
			for j := 1; j < g; j++ {
				sl, _ := sliceOf(whole, j, g)
				pre.Put(group[j], 0, sl, scan2Prefix, pgas.ViaShm)
			}
			ex, _ = sliceOf(whole, 0, g)
		}
	} else {
		tot.PutAt(leader, 0, off, total, scan2Total, pgas.ViaShm)
		if !head {
			st.Arrivals(scan2Prefix, 1)
			ex = pre.Landed(0, 0, k)
		}
	}
	// The fold: run = ex ⊕ v(0) ⊕ … ⊕ v(i) on slice pos, delivered as it grows
	// — position i's inclusive result with v(i) folded in, its exclusive one
	// before. My own result goes to my result region like the others'.
	run := coll.Temp[T](st, "run", k)
	if ex != nil {
		copy(run, ex)
		me.MemWork(es * k)
	}
	deliver := func(i int) {
		if r := group[i]; r != v.Rank {
			res.PutAt(r, 0, off, run, scan2SliceResult, pgas.ViaShm)
		} else {
			copy(res.Region(0)[off:off+k], run)
			me.MemWork(es * k)
		}
	}
	for i := range g {
		if exclusive && (i > 0 || !head) {
			deliver(i)
			if i == g-1 {
				break // the total is nobody's exclusive result
			}
		}
		if i == 0 && head {
			copy(run, slice(0))
			me.MemWork(es * k)
		} else {
			op.Combine(run, slice(i))
			me.MemWork(2 * es * k)
		}
		if !exclusive {
			deliver(i)
		}
	}
	if exclusive && v.Rank == 0 {
		return // buf stays unchanged
	}
	st.Arrivals(scan2SliceResult, g-1)
	res.Take(0, buf)
}

// scanLeaders is ScanTwoLevel's leaders' stage at the leader of group: from
// acc, the group's node total (which it may spend), it returns the reduction
// over every preceding node's total — nil at the head node.
func scanLeaders[T any](v *team.View, st *coll.State, acc []T, op coll.Op[T], group []int, form string) []T {
	t := v.T
	leaders := t.Leaders()
	if len(leaders) < logDepthLeaders {
		return scanChain(v, st, acc, op, group, form)
	}
	// Pairwise exchange, log-depth (it spends acc).
	x := coll.Temp[T](st, "ex", len(acc))
	if coll.SubgroupExscan(v, leaders, t.GroupOf(v.Rank), acc, x, op, coll.Alg{"core.scan2lead", form}) {
		return x
	}
	return nil
}

// scanChain is the leaders' chain of ScanTwoLevel, the head waiting for
// nobody. The groups tile the rank range, so my predecessor in the chain leads
// the rank below my group and my successor is the rank above it. A vector of
// more than one segment (chainSegments) travels in segments: each lands on an
// arrival slot of its own, the leader forwards each as soon as it has combined
// it, and acks its predecessor once the last is in. The chain has a state of
// its own, which only leaders touch. Flag layout: slots 0/1 parity credits
// (successor→predecessor), slot 2+2s+parity segment s's arrivals.
//
//go:noinline
func scanChain[T any](v *team.View, st *coll.State, acc []T, op coll.Op[T], group []int, form string) []T {
	t, me := v.T, v.Img
	n, es := len(acc), pgas.ElemSize[T]()
	segs := chainSegments(t, n, es)
	cst := coll.GetState(v, coll.Alg{"core.scan2chain", op.Name, form, pgas.TypeName[T]()}, 2+2*maxChainSegs)
	parity := cst.Next()
	box := coll.NewBox[T](cst, "", n, 1)
	var ex []T // reduction over every preceding node's total; nil at the head
	first, next := group[0], group[len(group)-1]+1
	if first > 0 {
		ex = coll.Temp[T](st, "ex", n)
	}
	fwd := acc // the node total, already the running prefix over my groups
	if ex != nil && next < t.Size() {
		fwd = coll.Temp[T](st, "fwd", n)
	}
	for s := range segs {
		if ex != nil {
			landSegment(cst, box, ex, s, segs, 2+parity, t.LeaderOf(first-1), parity, pgas.ViaAuto)
		}
		if next == t.Size() {
			continue
		}
		f, off := coll.Segment(fwd, s, segs)
		if ex != nil {
			copy(f, ex[off:off+len(f)])
			op.Combine(f, acc[off:off+len(f)])
			me.MemWork(3 * es * len(f))
		}
		if s == 0 {
			// Gate on the successor's credit for my previous same-parity send.
			cst.Gate(parity, 1)
		}
		box.PutAt(next, 0, off, f, 2+parity+2*s, pgas.ViaAuto)
	}
	return ex
}

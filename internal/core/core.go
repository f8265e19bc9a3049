// Package core implements the paper's primary contribution: the memory
// hierarchy-aware, team-based runtime methodology for collective operations
// in a PGAS runtime.
//
// The methodology (paper §IV-A) is stated once: synchronize or combine inside
// each shared-memory group up to the group's leader, where notifications are
// loads and stores and a centralized scheme is cheap; run a distributed
// algorithm (dissemination, recursive doubling, binomial) among the node
// leaders only, where the message-passing cost model applies; release back
// down. A group combines its vectors as a reduce-scatter, each slice at one
// member and the leader gathering the slices: centralized is cheap for flags,
// not for large vectors, so from sliceBytes per member's slice up every core of
// the node combines one slice, and below it the vectors are one slice, which
// the leader combines alone. ScanTwoLevel's node stage slices large vectors
// too, its members each folding one slice of every vector onto the node's
// prefix as well.
// internal/team precomputes the groups and leaders as each team's hierarchy
// view; "multi-level hierarchies (NUMA nodes, sockets)" are the same recipe
// with more levels.
//
// So an image's way up the hierarchy is a value — levelsOf: the groups it
// belongs to or leads, innermost first, each with its leader — and each
// hierarchy-aware algorithm is written once over it:
//
//   - barrierLeveled is the barrier. BarrierTDLB (paper Algorithm 1),
//     BarrierTDLL (linear among the leaders, the E6 ablation) and
//     BarrierTDLB3 (socket-aware) are instantiations.
//   - allreduceLeveled is the all-to-all reduction. AllreduceTwoLevel and
//     AllreduceThreeLevel are instantiations.
//
// The slot/level rule both share: level d of the walk owns flag slots 2d
// (arrivals at the level's leader) and 2d+1 (its release); the leaders' phase
// takes the slots that follow. The rooted and personalized collectives
// (BcastTwoLevel, ReduceToRootTwoLevel, ScatterTwoLevel, GatherTwoLevel,
// AllgatherTwoLevel, AlltoallTwoLevel, ScanTwoLevel) are two-level
// compositions of their own, because the root's position decides each image's
// role. Where they replicate or combine, their leaders' stage is log-depth like
// the two above: the binomial trees of BcastTwoLevel and ReduceToRootTwoLevel,
// Bruck's algorithm over node blocks (coll.SubgroupAllgatherBruck) in
// AllgatherTwoLevel and, from logDepthLeaders node leaders up, the
// pairwise-exchange scan of coll.SubgroupExscan in ScanTwoLevel (below that
// number a chain, which measures faster there). Where they distribute or
// collect (ScatterTwoLevel, GatherTwoLevel) it is coll's linear scatter and
// gather over node blocks, or its binomial trees from treeLeaders leaders up,
// the root standing in for its node; where they exchange (AlltoallTwoLevel) it
// is coll's pairwise exchange over node-pair runs. The only inter-node sends
// this package writes itself are ScanTwoLevel's chain and ScatterTwoLevel's
// done wave. A leader serves its node while that stage works the network, and
// copies nothing the data does not need: BcastTwoLevel fans out once the
// payload is forwarded down the tree, before the acks climb back, and cuts a
// large one into segments that travel the handoff, the tree and the fan-out
// one behind the other; AllgatherTwoLevel fans out each node block in the
// round that delivered it, and its members copy each round out as it lands;
// AlltoallTwoLevel fans out each node-pair run in the step that delivered it;
// ScanTwoLevel folds its members' results straight out of the inbox — or, for
// large vectors, every member folds one slice of them — and its chain carries
// a large vector in segments, each forwarded as soon as it is combined. Where
// they distribute or exchange, flow control sends only what no wait already
// proves: a done wave reaches the images a root writes to (ScatterTwoLevel's
// stops at the node leaders) and AlltoallTwoLevel's own exchange frees every
// region, so it sends no credit. What they share is the protocol under them,
// and that is written once, in internal/coll's vocabulary: a landing area is a
// coll.Box (it owns the episode's parity and the region offsets), a wait is
// State.Arrivals, Gate or Inject, a send without data is State.Notify (a count:
// an arrival, an ack, a credit) or Stamp (a release; the Publish done wave and
// its Relay), a member's receipt and ack of its block is Box.Land, and on top
// of those this package has three stage verbs of its own: fanOut, a leader's
// gated delivery to its intranode set (whole, or one segment at an offset);
// landSegment, the receipt of one segment of a payload that travels in
// pieces (BcastTwoLevel's, ScanTwoLevel's chain), each on its own arrival
// slot, acked once the last is in; and
// reduceUp, a group's combine into its leader — a reduce-scatter into one
// slice per member, or into one slice at the leader — under allreduceLeveled
// and ReduceToRootTwoLevel. No body touches a flag, multiplies a parity by a
// capacity, reads a counter or passes the episode number on. Policy selects between flat and hierarchy-aware algorithms from
// the team's hierarchy shape and the message size.
//
// This package is backend-agnostic: it speaks to the runtime only through
// internal/pgas (the Transport seam) and must never import internal/sim —
// internal/lint's layers analyzer (run as cmd/caflint via go vet) enforces it.
package core

import (
	"fmt"
	"slices"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// level is one step of an image's way up the memory hierarchy: a group of
// team ranks that share a level of it, and the member that goes on to the
// next level for all of them.
type level struct {
	group  []int
	leader int
}

// levelsOf fills buf with rank's way up, innermost first, and returns the
// levels in use: the intranode set for the two-level runtime; with sockets,
// the socket group, then the socket leaders of the node. Only a level's
// leader climbs on, so an image reads the levels up to the first it does not
// lead. The last level's leader is the node leader. The groups are the team's
// own slices and buf is the caller's: nothing is allocated.
func levelsOf(t *team.Team, rank int, sockets bool, buf *[2]level) []level {
	gi := t.GroupOf(rank)
	if !sockets {
		buf[0] = level{t.NodeGroup(gi), t.LeaderOf(rank)}
		return buf[:1]
	}
	sleaders := t.SocketLeaders(gi)
	for i, sg := range t.SocketGroups(gi) {
		if slices.Contains(sg, rank) {
			buf[0] = level{sg, sleaders[i]}
			buf[1] = level{sleaders, t.LeaderOf(rank)}
			return buf[:2]
		}
	}
	panic(fmt.Sprintf("core: rank %d not found in its node's socket groups", rank))
}

// levelWidths returns the size of the largest group of each level over the
// whole team: what a level's range of slice regions is sized from.
func levelWidths(t *team.Team, sockets bool) [2]int {
	if !sockets {
		return [2]int{t.MaxNodeGroup(), 0}
	}
	return [2]int{t.MaxSocketGroup(), t.MaxSockets()}
}

// fanOut delivers, over shared memory, block(i, r) — group position i, team
// rank r — at element offset off of region 0 of r's box, for every member of
// the leader's group but skip (the episode's root, which has its data; −1 for
// none), gated on the acks (ackSlot) of its previous same-parity fan-out — or,
// ackSlot −1, on nothing: a later piece of a fan-out the episode already
// gated. The leader's own position is asked for too, in group order, and not
// sent: assembling a block may be charged work, its own included.
func fanOut[T any](v *team.View, st *coll.State, box coll.Box[T], group []int, skip, ackSlot, slot, off int, block func(i, r int) []T) {
	if ackSlot >= 0 {
		st.Gate(ackSlot, others(v, group, skip))
	}
	for i, r := range group {
		if r == skip {
			continue
		}
		if b := block(i, r); r != v.Rank {
			box.PutAt(r, 0, off, b, slot, pgas.ViaShm)
		}
	}
}

// landSegment is the receiving end of a payload that travels in segments
// (coll.Segment's cut of buf into segs): await segment s's own arrival, on
// slot+2s (the slots of one episode's segments interleave with the other
// parity's), take it into buf and, once the last segment is in, ack the
// sender (a team rank) on ackSlot over via, so it may reuse the region. With
// one segment it is Box.Land.
func landSegment[T any](st *coll.State, box coll.Box[T], buf []T, s, segs, slot, sender, ackSlot int, via pgas.Via) {
	seg, off := coll.Segment(buf, s, segs)
	st.Arrivals(slot+2*s, 1)
	box.TakeAt(0, off, seg)
	if s == segs-1 {
		st.Notify(sender, ackSlot, via)
	}
}

// segBytes and maxSegs size BcastTwoLevel's pipeline (three-episode cells;
// CHANGES.md has the sweep): on a team where some node hosts more than one
// image, a payload travels in segments of segBytes per round of the leaders'
// binomial tree — twice that when no node hosts more than two images — and
// at most maxSegs of them, so that a leader fans each segment out to its node
// while the next is on the wire. Every segment pays the leaders' per-message
// network cost once per tree round and hides one fan-out put per member, so
// the deeper the tree and the smaller the node the larger a segment must be
// to gain. A payload of one segment travels whole, and so does every payload
// when no node hosts more than one image (no fan-out to overlap). The cap
// keeps a large payload's segments large.
const (
	segBytes = 4 << 10
	maxSegs  = 16
)

// segments returns how many segments BcastTwoLevel cuts an n-element payload
// of es-byte elements into on team t: the same on every image of the team.
func segments(t *team.Team, n, es int) int {
	m := t.MaxNodeGroup()
	if m == 1 {
		return 1
	}
	seg := segBytes * max(1, coll.Rounds(t.NumNodeGroups()))
	if m == 2 {
		seg *= 2 // a pair's fan-out is one put: it hides half as much
	}
	return max(1, min((n*es+seg-1)/seg, maxSegs)) // an empty payload is one segment too
}

// sliceBytes is the measured crossover (three-episode cells; CHANGES.md has
// the sweep) from which reduceUp cuts a group's vectors into one slice per
// member: from slices of sliceBytes — the vector's bytes over the group's
// size — up, every member combines one slice, in parallel. Below it the leader
// combines the whole vectors alone: the per-slice puts and waits cost more
// than the combine they share out. A pair never slices, at any size: its
// gather costs what the split saves.
const sliceBytes = 512

// sliced reports whether a group of g reduces n-element vectors of es-byte
// elements by slices: the same on every member of the group.
func sliced(g, n, es int) bool { return g > 2 && n*es/g >= sliceBytes }

// upStage is one group's stage of a leveled reduction (reduceUp): the group
// and its leader, the group's range of regions, first.. of boxes of regions,
// and its flag slots: per-sender slice slots from slices+first, per-combiner
// gather slots from slices+regions+first, and the leader's credit to each
// member once it holds the group's result (−1 for none).
type upStage struct {
	level
	first, regions, slices, credit int
}

// reduceUp is the node stage of the leveled reductions, a reduce-scatter over
// shared memory: the group's vectors, buf on each member, are cut into c
// slices (one per member from sliceBytes per slice up, else one), the member
// at offset j from the leader combines slice j of all of them (combineSlices),
// and only the leader's buf ends with the group's result. A member that
// combines nothing puts its whole vector from this frame, gated on the
// leader's credit (s.credit) for its last: the one call here on the way to
// the transport.
func reduceUp[T any](v *team.View, st *coll.State, buf []T, op coll.Op[T], s *upStage) {
	n, g, c := len(buf), len(s.group), 1
	if sliced(g, n, pgas.ElemSize[T]()) {
		c = g
	}
	me := (groupPos(s.group, v.Rank) - groupPos(s.group, s.leader) + g) % g
	if me < c {
		combineSlices(v, st, buf, op, s, me, c)
		return
	}
	if s.credit >= 0 {
		st.Gate(s.credit, 1)
	}
	coll.NewFixedBox[T](st, "slice", n, s.regions).Put(s.leader, s.first+me, buf, s.slices+s.first+me, pgas.ViaShm)
}

// combineSlices is reduceUp's combiner at offset me of c: every member puts
// slice j of its vector (⌈n/c⌉ elements) to combiner j in shifted order, j =
// me+1, me+2, …; the combiner folds each sender's into its own as it lands, in
// the same order (the leader of one slice: g−1, g−2, …, 1), and puts the
// result to the leader, which copies it into buf. The regions are one fixed
// half: a member writes them again only once the episode's result reached it
// (the allreduce) or the leader's credit came, sent once it holds the result.
//
//go:noinline
func combineSlices[T any](v *team.View, st *coll.State, buf []T, op coll.Op[T], s *upStage, me, c int) {
	g, n, lp := len(s.group), len(buf), groupPos(s.group, s.leader)
	if g == 1 {
		return
	}
	per := (n + c - 1) / c
	slice := func(j int) []T {
		sl, _ := sliceOf(buf, j, c)
		return sl
	}
	in := coll.NewFixedBox[T](st, "slice", per, s.regions)
	if me != 0 && s.credit >= 0 {
		st.Gate(s.credit, 1)
	}
	for k := 1; k < c; k++ {
		j := (me + k) % g
		in.Put(s.group[(lp+j)%g], s.first+me, slice(j), s.slices+s.first+me, pgas.ViaShm)
	}
	mine := slice(me)
	for k := 1; k < g; k++ {
		i := (me - k + g) % g
		st.Arrivals(s.slices+s.first+i, 1)
		op.Combine(mine, in.Landed(s.first+i, 0, len(mine)))
		v.Img.MemWork(2 * pgas.ElemSize[T]() * len(mine))
	}
	var out coll.Box[T]
	if c > 1 {
		out = coll.NewFixedBox[T](st, "gather", per, s.regions)
	}
	gather := s.slices + s.regions + s.first
	if me != 0 {
		out.Put(s.leader, s.first+me, mine, gather+me, pgas.ViaShm)
		return
	}
	for j := 1; j < c; j++ {
		st.Arrivals(gather+j, 1)
		out.Take(s.first+j, slice(j))
	}
	if s.credit >= 0 {
		for _, r := range s.group {
			if r != v.Rank {
				st.Notify(r, s.credit, pgas.ViaShm)
			}
		}
	}
}

// sliceOf returns slice j of buf cut into g slices of ⌈len(buf)/g⌉ elements —
// the last ones shorter, or empty — and the slice's offset in buf: how the
// sliced node stages (combineSlices, scanSlices) cut a vector, the same on
// every member.
func sliceOf[T any](buf []T, j, g int) ([]T, int) {
	per := (len(buf) + g - 1) / g
	lo := min(j*per, len(buf))
	return buf[lo:min(lo+per, len(buf))], lo
}

// others counts the members of group besides the caller and skip.
func others(v *team.View, group []int, skip int) int {
	n := 0
	for _, r := range group {
		if r != v.Rank && r != skip {
			n++
		}
	}
	return n
}

// barrierLeveled is the hierarchy-aware barrier, run by every image of the
// team (paper Algorithm 1, for any number of shared-memory levels):
//
//	up:   at each level the image arrives at the level's leader through a
//	      linear counter in shared memory and awaits its release; only the
//	      leader — once its whole group arrived — climbs on;
//	top:  the node leaders synchronize among themselves over the network,
//	      with the dissemination barrier or (linearTop) the linear one;
//	down: each leader releases the groups it leads through shared memory,
//	      outermost first.
//
// Flag layout: level d has slot 2d for arrivals at its leader (the
// "cocounter" of Algorithm 1) and slot 2d+1 for the leader's release stamp;
// the leaders' barrier uses the slots that follow.
func barrierLeveled(v *team.View, name string, sockets, linearTop bool) {
	t := v.T
	v.Img.World().Stats().Count(trace.OpBarrier)
	if t.Size() == 1 {
		return
	}
	var buf [2]level
	levels := levelsOf(t, v.Rank, sockets, &buf)
	leaders := t.Leaders()
	top := 2 * len(levels)
	topSlots := coll.Rounds(len(leaders))
	if linearTop {
		topSlots = 2
	}
	st := coll.GetState(v, coll.Alg{name}, top+topSlots)
	st.Next()

	d := 0
	for ; d < len(levels); d++ {
		lv := levels[d]
		if v.Rank != lv.leader {
			st.Notify(lv.leader, 2*d, pgas.ViaShm)
			st.Arrivals(2*d+1, 1)
			break
		}
		if len(lv.group) > 1 {
			st.Arrivals(2*d, len(lv.group)-1)
		}
	}
	if d == len(levels) {
		if linearTop {
			coll.SubgroupLinear(st, top, leaders, t.GroupOf(v.Rank))
		} else {
			coll.SubgroupDissemination(st, top, leaders, t.GroupOf(v.Rank))
		}
	}
	// d is the first level the image does not lead: it releases those below.
	for d--; d >= 0; d-- {
		for _, r := range levels[d].group {
			if r != v.Rank {
				st.Stamp(r, 2*d+1, pgas.ViaShm)
			}
		}
	}
}

// BarrierTDLB is the Team Dissemination Linear Barrier (paper Algorithm 1):
// linear_counter_1 up to the node leader, pgased_dissemination among the
// leaders, linear_counter_2 back down. With one image per node every image
// is a leader, both linear phases vanish, and TDLB degenerates to the pure
// dissemination barrier — the paper's flat-hierarchy parity result (E1).
func BarrierTDLB(v *team.View) { barrierLeveled(v, "tdlb", false, false) }

// BarrierTDLL is the ablation variant that uses a *linear* barrier among the
// node leaders instead of dissemination (experiment E6): intra-node linear,
// inter-node linear through the first leader.
func BarrierTDLL(v *team.View) { barrierLeveled(v, "tdll", false, true) }

// BarrierTDLB3 is the multi-level extension of TDLB the paper lists as
// future work ("multi-level hierarchies to represent ... NUMA memory nodes,
// shared caches, processor sockets and cores"): core images synchronize with
// their *socket* leader (the cheapest coherence domain), socket leaders with
// their *node* leader (shared memory across sockets), node leaders by
// dissemination over the network; releases cascade back down.
func BarrierTDLB3(v *team.View) { barrierLeveled(v, "tdlb3", true, false) }

package coll

import (
	"fmt"
	"slices"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// ScatterOwn is the entry of every scatter: the root checks send (which is
// significant only there) against the team's size and keeps its own block. It
// reports whether there is anyone else to serve.
func ScatterOwn[T any](v *team.View, root int, send, recv []T) bool {
	v.Img.World().Stats().Count(trace.OpBroadcast)
	sz, n := v.NumImages(), len(recv)
	if v.Rank == root {
		if len(send) < sz*n {
			panic(fmt.Sprintf("coll: scatter send %d < %d", len(send), sz*n))
		}
		copy(recv, send[root*n:root*n+n])
		v.Img.MemWork(pgas.ElemSize[T]() * n)
	}
	return sz > 1
}

// ScatterLinear distributes per-member blocks from team rank root directly:
// the root puts block r of send (send[r*n:(r+1)*n], n = len(recv)) to member
// r — the centralized scheme, 2(n−1) serialized messages from one image. send
// is significant only at the root and must hold NumImages()*len(recv) there.
func ScatterLinear[T any](v *team.View, root int, send, recv []T) {
	if ScatterOwn(v, root, send, recv) {
		ranks := v.T.Ranks()
		scatterFlat(v, root, Alg{"sc.lin", tag[T]()}, false, func(i int) []int { return ranks[i : i+1] }, send, recv)
	}
}

// ScatterBinomial distributes per-member blocks along the binomial scatter
// tree: SubgroupScatterBinomial over the whole team.
func ScatterBinomial[T any](v *team.View, root int, send, recv []T) {
	if ScatterOwn(v, root, send, recv) {
		ranks := v.T.Ranks()
		scatterFlat(v, root, Alg{"sc.binom", tag[T]()}, true, func(i int) []int { return ranks[i : i+1] }, send, recv)
	}
}

// scatterFlat runs SubgroupScatterLinear or (tree) SubgroupScatterBinomial
// over the whole team, member i speaking for block(i), under the root's
// injection gate and its done wave on slot 4 (in rank order, or root-relative
// after the tree).
func scatterFlat[T any](v *team.View, root int, alg Alg, tree bool, block func(i int) []int, send, recv []T) {
	st := GetState(v, alg, 5)
	st.Next()
	ranks := v.T.Ranks()
	first := 0
	if v.Rank == root {
		st.Inject(4)
	}
	if tree {
		first = root
		SubgroupScatterBinomial(st, 0, ranks, v.Rank, root, block, 1, send, recv, nil)
	} else {
		SubgroupScatterLinear(st, 0, ranks, v.Rank, root, block, 1, send, recv, nil)
	}
	if v.Rank == root {
		st.Publish(4, ranks, first, pgas.ViaConduit)
	}
}

// SubgroupScatterLinear is the centralized scatter among a subgroup, with
// SubgroupScatterBinomial's contract and flag layout: the root puts every other
// participant's packed block into its one landing region, in index order, then
// hands its own to forwarded — a block ships from send when its team ranks are
// consecutive, otherwise packed into one staging buffer (a put captures its
// payload at issue) at a copy's cost. A participant awaits its block, hands it
// to forwarded, takes its first n elements into recv and acks the root.
func SubgroupScatterLinear[T any](st *State, base int, group []int, myIdx, rootIdx int, block func(i int) []int, maxBlock int, send, recv []T, forwarded func(packed []T)) {
	n := len(recv)
	box := NewBox[T](st, "", maxBlock*n, 1)
	paySlot, ackSlot := base+st.parity(), base+2+st.parity()
	if myIdx != rootIdx {
		st.Arrivals(paySlot, 1)
		if forwarded != nil {
			forwarded(box.Landed(0, 0, len(block(myIdx))*n))
		}
		box.Take(0, recv)
		st.Notify(group[rootIdx], ackSlot, pgas.ViaConduit)
		return
	}
	pack := func(i int) []T {
		b := block(i)
		if slices.IsSorted(b) && b[len(b)-1]-b[0] == len(b)-1 { // consecutive ranks
			return send[b[0]*n : (b[0]+len(b))*n]
		}
		p := Temp[T](st, "pack", maxBlock*n)[:len(b)*n]
		for j, r := range b {
			copy(p[j*n:], send[r*n:r*n+n])
		}
		st.v.Img.MemWork(pgas.ElemSize[T]() * len(p))
		return p
	}
	for i, r := range group {
		if i != rootIdx {
			box.Put(r, 0, pack(i), paySlot, pgas.ViaConduit)
		}
	}
	if forwarded != nil {
		forwarded(pack(rootIdx))
	}
	st.Arrivals(ackSlot, len(group)-1)
}

// SubgroupScatterBinomial is the binomial scatter tree (the scatter half of
// the van de Geijn broadcast: Barnett et al., InterCom, 1994) among an
// arbitrary subgroup of a team, each participant speaking for a block of team
// ranks: every internal node of the "low bits free" tree over indices relative
// to rootIdx receives the packed blocks of its whole subtree [rel,
// rel+lowbit(rel)) and forwards the upper half at every level — ceil(log2 g)
// depth, each block crossing the wire once per tree level it descends.
//
// group lists the participating team ranks, myIdx is the caller's index within
// it and block(i) the team ranks participant i speaks for, at most maxBlock of
// them. send, significant at the root only, holds the n = len(recv) elements
// of team rank r at r·n; the root packs every block from it in relative order
// (charged as one copy of the whole payload, its own block included). A
// non-root caller's own team rank leads its block: recv receives that rank's n
// elements as soon as the subtree has landed, before anything is forwarded.
//
// A landing area holds its owner's whole subtree, span·maxBlock·n elements,
// so it lives in the scratch of that span's size class (the sender picks the
// same class from the child's position): leaves land one block, nobody stages
// the whole group, and the root forwards from a private copy. Flow control is
// the SubgroupBcastBinomial ack scheme on slots base.. of st, whose episode the
// caller has claimed: parity payload arrivals (base, base+1) and parity
// acks (base+2, base+3) climbing back to the root. The injection gate before
// the root's call and the done wave after it are the caller's: it alone knows
// who else may write the landing areas and who the next roots are.
//
// forwarded, when not nil, is called with the caller's packed subtree once it
// has been forwarded to the children, before their acks are awaited and before
// the caller acks its parent: the subtree stays readable until it returns.
func SubgroupScatterBinomial[T any](st *State, base int, group []int, myIdx, rootIdx int, block func(i int) []int, maxBlock int, send, recv []T, forwarded func(tree []T)) {
	g := len(group)
	n := len(recv)
	paySlot := base + st.parity()
	ackSlot := base + 2 + st.parity()
	me := st.v.Img
	rel := (myIdx - rootIdx + g) % g
	span := func(a, b int) int { return packedLen(block, g, rootIdx, a, b, n) }

	var tree []T // the packed blocks of relative indices [rel, rel+lowbit(rel))
	if rel == 0 {
		tree = Temp[T](st, "tree", span(0, g))
		at := 0
		for q := 0; q < g; q++ {
			for _, r := range block((q + rootIdx) % g) {
				copy(tree[at:at+n], send[r*n:])
				at += n
			}
		}
		me.MemWork(pgas.ElemSize[T]() * at)
	} else {
		st.Arrivals(paySlot, 1)
		box, cnt := subtreeBox[T](st, rel, g, maxBlock*n)
		tree = box.Landed(0, 0, span(rel, rel+cnt))
		box.Take(0, recv)
	}
	// Forward subtree halves, deepest child first.
	nkids := binomialFanout(rel, g)
	for k := nkids - 1; k >= 0; k-- {
		child := rel + 1<<k
		last := min(child+1<<k, g)
		box, _ := subtreeBox[T](st, child, g, maxBlock*n)
		lo := span(rel, child)
		box.Put(group[(child+rootIdx)%g], 0, tree[lo:lo+span(child, last)], paySlot, pgas.ViaConduit)
	}
	if forwarded != nil {
		forwarded(tree)
	}
	if nkids > 0 {
		st.Arrivals(ackSlot, nkids)
	}
	if rel != 0 {
		parent := group[(rel-rel&-rel+rootIdx)%g] // rel less its lowest bit
		st.Notify(parent, ackSlot, pgas.ViaConduit)
	}
}

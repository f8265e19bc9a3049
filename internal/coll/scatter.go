package coll

import (
	"fmt"

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
// r — the centralized scheme, 2(n−1) serialized messages from one image
// (deliverLinear). send is significant only at the root and must hold
// NumImages()*len(recv) elements there.
func ScatterLinear[T any](v *team.View, root int, send, recv []T) {
	if ScatterOwn(v, root, send, recv) {
		deliverLinear(v, root, Alg{"sc.lin", tag[T]()}, send, len(recv), recv)
	}
}

// ScatterBinomial distributes per-member blocks along the binomial scatter
// tree (the scatter half of the van de Geijn broadcast): each internal node
// of the "low bits free" tree over relative ranks receives the packed
// blocks of its whole subtree [rel, rel+lowbit(rel)) and forwards the upper
// half at every level — ceil(log2 n) depth, each block crossing the wire
// once per tree level it descends.
//
// Flow control is the SubgroupBcastBinomial credit scheme: parity payload
// and ack slots, an ack wave climbing back to the episode root, a done
// stamp, and a root injection gate at done >= e−2.
//
// A member's landing area holds its whole subtree, so it lives in the
// scratch of that subtree's size class (the sender picks the same class from
// the child's position): leaves land one block, and nobody stages the whole
// team — the root forwards from a private copy.
func ScatterBinomial[T any](v *team.View, root int, send, recv []T) {
	if !ScatterOwn(v, root, send, recv) {
		return
	}
	sz := v.NumImages()
	n := len(recv)
	st := GetState(v, Alg{"sc.binom", tag[T]()}, 5)
	ep := st.Next()
	parity := int(ep % 2)
	paySlot := parity
	ackSlot := 2 + parity
	me := v.Img
	rel := (v.Rank - root + sz) % sz
	member := func(relIdx int) int { return (relIdx + root) % sz }

	// tree holds the packed blocks for relative ranks [rel, rel+span).
	var tree []T
	if rel == 0 {
		st.Inject(4)
		tree = Temp[T](st, "tree", sz*n)
		for q := 0; q < sz; q++ {
			copy(tree[q*n:(q+1)*n], send[member(q)*n:])
		}
		me.MemWork(pgas.ElemSize[T]() * sz * n)
	} else {
		st.Arrivals(paySlot, 1)
		box, span := subtreeBox[T](st, rel, sz, n)
		tree = box.Region(0)[:span*n]
		box.Take(0, recv)
	}
	// Forward subtree halves, deepest child first.
	nkids := 0
	for k := Rounds(sz) - 1; k >= 0; k-- {
		if rel%(1<<(k+1)) == 0 && rel+1<<k < sz {
			child := rel + 1<<k
			last := min(child+1<<k, sz)
			box, _ := subtreeBox[T](st, child, sz, n)
			box.Put(member(child), 0, tree[(child-rel)*n:(last-rel)*n], paySlot, pgas.ViaConduit)
			nkids++
		}
	}
	if nkids > 0 {
		st.Arrivals(ackSlot, nkids)
	}
	if rel != 0 {
		parent := member(rel - (rel & -rel))
		me.NotifyAdd(st.Flags, v.T.GlobalRank(parent), ackSlot, 1, pgas.ViaConduit)
		return
	}
	st.Publish(4, TeamRanks(v), root, pgas.ViaConduit)
}

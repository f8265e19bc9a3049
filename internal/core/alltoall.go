package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// Flag slots of the two-level alltoall: parity send-vector arrivals at a
// leader (from its intranode set) and fan-out arrivals at a member (from its
// leader). The leaders' exchange has a state of its own, so a member's flag
// row does not grow with the node count.
const (
	a2aInboxSlot  = 0 // +parity
	a2aOutboxSlot = 2
	a2aSlots      = 3
)

// AlltoallTwoLevel is the hierarchy-aware personalized all-to-all exchange:
// each member hands its whole send vector to its node leader over shared
// memory, the leaders run the pairwise exchange over the network
// (coll.SubgroupAlltoallPairwise) with one *node-pair run* per pair of nodes —
// |g|·|h| blocks aggregated into a single message, the leader-staged
// counterpart of the pairwise exchange's |g|·|h| separate wires — and each
// leader hands every member its slice of a run over shared memory as soon as
// the run lands, its own node's before the exchange. send block j goes to team
// rank j; recv block i arrives from team rank i; both hold NumImages() blocks.
// Per episode: a put and its notify per ordered node pair over the network, the
// send vector's per member over shared memory, and per member the fan-out's: a
// put and its notify per node, or per rank of a node whose team ranks are not
// consecutive. With one image per node this is exactly coll.AlltoallPairwise.
//
// No landing region needs a credit: as in coll.SubgroupAlltoallPairwise, the
// exchange's own waits prove a region's reader consumed an episode's write
// before its writer reuses it.
//   - A member's inbox slot at its leader, in parity halves: the member ships
//     episode e+2 after its episode e+1 fan-out arrived, sent by the leader
//     after episode e. One half would not do: a member served early (on a
//     single node, once its own node's share is in) ships episode e+1 while
//     the leader still packs the others' shares of episode e from it.
//   - A member's outbox, one set of regions for every episode: the leader
//     fans episode e+1 out after the member's episode e+1 send vector
//     arrived, shipped after it took episode e's.
func AlltoallTwoLevel[T any](v *team.View, send, recv []T) {
	t := v.T
	sz := t.Size()
	n := coll.AlltoallBlock(v, send, recv)
	v.Img.World().Stats().Count(trace.OpReduce)
	if sz == 1 {
		copy(recv, send[:n])
		return
	}
	st := coll.GetState(v, coll.Alg{"a2a2", pgas.TypeName[T]()}, a2aSlots)
	parity := st.Next()
	// Two boxes (in block-sized regions), which no image needs when every node
	// hosts one: a leader's inbox (one full send vector of sz regions per
	// member, the leader being its group's first position) and a member's
	// outbox (one full recv vector, the same in every episode).
	var inbox, outbox coll.Box[T]
	if mg := t.MaxNodeGroup(); mg > 1 {
		inbox = coll.NewBox[T](st, "in", n, (mg-1)*sz)
		outbox = coll.NewFixedBox[T](st, "out", n, sz)
	}
	leader := t.LeaderOf(v.Rank)
	if v.Rank == leader {
		alltoallTwoLevelLead(v, st, inbox, outbox, send, recv, n, parity)
		return
	}
	// Ship my send vector to the leader's inbox, then take my receive vector
	// once every fan-out put has landed.
	group := t.NodeGroup(t.GroupOf(v.Rank))
	inbox.Put(leader, (groupPos(group, v.Rank)-1)*sz, send[:sz*n], a2aInboxSlot+parity, pgas.ViaShm)
	st.Arrivals(a2aOutboxSlot, nodeBlockPuts(t))
	outbox.Take(0, recv[:sz*n])
}

// alltoallTwoLevelLead is a node leader's part of AlltoallTwoLevel: collect the
// intranode set's send vectors, hand out my own node's shares, then exchange
// runs with the other leaders, handing out each as it lands. A function of its
// own for the reason scanTwoLevelLead is: the members carry none of its frame.
//
//go:noinline
func alltoallTwoLevelLead[T any](v *team.View, st *coll.State, inbox, outbox coll.Box[T], send, recv []T, n, parity int) {
	t, me := v.T, v.Img
	sz, mg := t.Size(), t.MaxNodeGroup()
	es := pgas.ElemSize[T]()
	gi := t.GroupOf(v.Rank)
	group := t.NodeGroup(gi)
	gsz := len(group)
	if gsz > 1 {
		st.Arrivals(a2aInboxSlot+parity, gsz-1)
	}
	// vec(j) is group position j's full send vector.
	vec := func(j int) []T {
		if j == 0 {
			return send
		}
		return inbox.Region((j - 1) * sz)
	}
	// pack returns my node's run for the team ranks dst, destination-major: for
	// each d of dst, every member's block for d (group order) — so each
	// member's share of a run is one contiguous slice. A node of one ships
	// consecutive destinations straight from send. One staging buffer serves
	// every run: a put captures its payload at issue.
	staging := coll.Temp[T](st, "pack", gsz*mg*n)
	pack := func(dst []int) []T {
		if gsz == 1 && consecutive(dst) {
			return send[dst[0]*n : (dst[len(dst)-1]+1)*n]
		}
		run := staging[:0]
		for _, d := range dst {
			for j := range group {
				run = append(run, vec(j)[d*n:d*n+n]...)
			}
		}
		me.MemWork(es * len(run))
		return run
	}
	// hand gives group position i its share of node h's run — the blocks of h's
	// members for it, in h's group order — at h's ranks of its receive vector:
	// a member by one put into its outbox, or one per rank when h's team ranks
	// are not consecutive, and me by copy.
	hand := func(h, i int, share []T) {
		src := t.NodeGroup(h)
		switch m := group[i]; {
		case m == v.Rank:
			for j, r := range src {
				copy(recv[r*n:r*n+n], share[j*n:])
			}
			me.MemWork(es * len(share))
		case consecutive(src):
			outbox.PutAt(m, 0, src[0]*n, share, a2aOutboxSlot, pgas.ViaShm)
		default:
			for j, r := range src {
				outbox.PutAt(m, 0, r*n, share[j*n:j*n+n], a2aOutboxSlot, pgas.ViaShm)
			}
		}
	}
	// My own node's shares go out first, one member at a time; each other
	// node's as its run lands. Mine come last, so that the members' puts are on
	// their way while I copy.
	for k := 1; k <= gsz; k++ {
		i := k % gsz
		hand(gi, i, pack(group[i:i+1]))
	}
	// The pairwise exchange of node-pair runs among the leaders. Its step slots
	// live on a leaders-only state: no member's flag row carries them.
	if leaders := t.Leaders(); len(leaders) > 1 {
		steps := len(leaders) - 1
		ls := coll.GetState(v, coll.Alg{"a2a2", "pw", pgas.TypeName[T]()}, steps)
		ls.Next()
		coll.SubgroupAlltoallPairwise(ls, 0, coll.NewBox[T](ls, "", n, steps*mg*mg), leaders, gi, mg*mg,
			func(h int) []T { return pack(t.NodeGroup(h)) },
			func(h int, run []T) {
				hn := len(t.NodeGroup(h)) * n
				for k := 1; k <= gsz; k++ {
					i := k % gsz
					hand(h, i, run[i*hn:(i+1)*hn])
				}
			})
	}
}

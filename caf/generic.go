// Generic (any element type) forms of the collective intrinsics and of
// coarray allocation. Go methods cannot introduce type parameters, so these
// are package-level functions taking the *Image receiver first: where a
// float64 program writes im.CoSum(x), an int64 program writes
// caf.CoSumT(im, x). The float64 methods on Image are thin wrappers over
// these.
package caf

import (
	"fmt"

	"cafteams/internal/coll"
	"cafteams/internal/core"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
)

// Numeric constrains the element types the predefined reductions (CoSumT,
// CoMaxT, CoMinT) accept: every Go numeric type. CoReduceT, CoBroadcastT,
// CoAllgatherT and NewCoarrayT take any type.
type Numeric = coll.Number

// Kind names a collective operation class for algorithm selection: one of
// KindBarrier, KindAllreduce, KindReduceTo, KindBroadcast, KindAllgather,
// KindScatter, KindGather, KindAlltoall, KindScan.
type Kind = core.Kind

// The collective kinds, for Config.WithAlgorithm and Algorithms.
const (
	KindBarrier   = core.KindBarrier
	KindAllreduce = core.KindAllreduce
	KindReduceTo  = core.KindReduceTo
	KindBroadcast = core.KindBroadcast
	KindAllgather = core.KindAllgather
	KindScatter   = core.KindScatter
	KindGather    = core.KindGather
	KindAlltoall  = core.KindAlltoall
	KindScan      = core.KindScan
)

// Tuning selects, per collective kind, the algorithm the runtime uses, by
// registry name. See Config.Tuning.
type Tuning = core.Tuning

// AlgAuto, as a Tuning entry, picks the algorithm per call from a measured
// decision table keyed on how the team sits on the machine (images per node,
// sockets, nodes) and on the payload bytes; under RunFlat, among the
// hierarchy-oblivious algorithms only.
const AlgAuto = core.AlgAuto

// AutoTuning returns the Tuning that reads every collective kind's algorithm
// from the decision table.
func AutoTuning() Tuning { return core.AllAuto() }

// Algorithms returns the names selectable for collective kind k, e.g.
// ["rd", "linear", "tree", "ring", "2level", "3level"] for KindAllreduce.
func Algorithms(k Kind) []string { return core.Algorithms(k) }

// CoSumT reduces a element-wise by summation across the current team for
// any numeric element type; every image receives the result (CAF co_sum).
func CoSumT[T Numeric](im *Image, a []T) {
	im.guardTeam("co_sum")
	core.PolicyAllreduce(im.pol, im.view(), a, coll.SumOp[T]())
}

// CoMaxT reduces element-wise by maximum (CAF co_max).
func CoMaxT[T Numeric](im *Image, a []T) {
	im.guardTeam("co_max")
	core.PolicyAllreduce(im.pol, im.view(), a, coll.MaxOp[T]())
}

// CoMinT reduces element-wise by minimum (CAF co_min).
func CoMinT[T Numeric](im *Image, a []T) {
	im.guardTeam("co_min")
	core.PolicyAllreduce(im.pol, im.view(), a, coll.MinOp[T]())
}

// CoReduceT reduces with a caller-supplied associative, commutative
// operation over any element type. name keys the runtime's internal state;
// use one name per distinct operation.
func CoReduceT[T any](im *Image, a []T, name string, combine func(dst, src []T)) {
	im.guardTeam("co_reduce")
	core.PolicyAllreduce(im.pol, im.view(), a, coll.Op[T]{Name: name, Combine: combine})
}

// CoSumToT reduces a by summation onto resultImage only (1-based, current
// team) — the CAF co_sum(result_image=...) form. Other images' buffers are
// left with partial values.
func CoSumToT[T Numeric](im *Image, a []T, resultImage int) {
	im.guardTeam("co_sum(result_image)")
	core.PolicyReduceTo(im.pol, im.view(), teamRank(im.view(), "co_sum(result_image)", "result", resultImage), a, coll.SumOp[T]())
}

// CoBroadcastT broadcasts a from sourceImage (1-based, current team) to the
// whole team (CAF co_broadcast), for any element type.
func CoBroadcastT[T any](im *Image, a []T, sourceImage int) {
	im.guardTeam("co_broadcast")
	core.PolicyBroadcast(im.pol, im.view(), teamRank(im.view(), "co_broadcast", "source", sourceImage), a)
}

// CoAllgatherT concatenates every image's mine vector into out, ordered by
// team rank, on every image of the current team. out must hold
// NumImages()*len(mine) elements.
func CoAllgatherT[T any](im *Image, mine, out []T) {
	im.guardTeam("co_allgather")
	core.PolicyAllgather(im.pol, im.view(), mine, out)
}

// CoScatterT distributes per-image blocks from sourceImage (1-based, current
// team): every image receives its len(recv)-element block of the source's
// send vector, which is significant only at the source and must hold
// NumImages()*len(recv) elements there (the MPI_Scatter pattern).
func CoScatterT[T any](im *Image, send, recv []T, sourceImage int) {
	im.guardTeam("co_scatter")
	core.PolicyScatter(im.pol, im.view(), teamRank(im.view(), "co_scatter", "source", sourceImage), send, recv)
}

// CoGatherT collects every image's send block into recv on resultImage
// (1-based, current team) only, ordered by team rank; recv is significant
// only at the result image and must hold NumImages()*len(send) elements
// there (the MPI_Gather pattern).
func CoGatherT[T any](im *Image, send, recv []T, resultImage int) {
	im.guardTeam("co_gather")
	core.PolicyGather(im.pol, im.view(), teamRank(im.view(), "co_gather", "result", resultImage), send, recv)
}

// CoAlltoallT performs the personalized all-to-all exchange over the current
// team: send block j goes to image j+1, recv block i arrives from image i+1.
// Both vectors hold NumImages() equal blocks (the MPI_Alltoall pattern
// behind distributed transposes and FFT exchanges).
func CoAlltoallT[T any](im *Image, send, recv []T) {
	im.guardTeam("co_alltoall")
	core.PolicyAlltoall(im.pol, im.view(), send, recv)
}

// CoScanT computes the element-wise prefix sum over image order (1..this
// image) in place: inclusive (a becomes the sum over images [1, me]) or
// exclusive (over [1, me); image 1's a is left unchanged) — the
// MPI_Scan/MPI_Exscan pair.
func CoScanT[T Numeric](im *Image, a []T, exclusive bool) {
	im.guardTeam("co_scan")
	core.PolicyScan(im.pol, im.view(), a, coll.SumOp[T](), exclusive)
}

// CoScanReduceT is CoScanT with a caller-supplied associative, commutative
// operation (like CoReduceT, the runtime may combine partial vectors in any
// order). name keys the runtime's internal state; use one name per distinct
// operation.
func CoScanReduceT[T any](im *Image, a []T, name string, combine func(dst, src []T), exclusive bool) {
	im.guardTeam("co_scan")
	core.PolicyScan(im.pol, im.view(), a, coll.Op[T]{Name: name, Combine: combine}, exclusive)
}

// CoarrayT is a symmetric shared array of T allocated across a team at
// creation time. Coarray is the float64 shorthand.
type CoarrayT[T any] struct {
	co *pgas.Coarray[T]
	v  *team.View
}

// NewCoarrayT collectively allocates a coarray of n elements of T per image
// of the current team. Coarrays allocated inside a ChangeTeam block exist
// only on that team's images — the paper's team-scoped allocation. The
// (name, element type) pair identifies the allocation: the same name used
// with two element types yields two distinct coarrays.
func NewCoarrayT[T any](im *Image, name string, n int) *CoarrayT[T] {
	v := im.view()
	key := fmt.Sprintf("caf:%d:%s:%s", v.T.ID(), pgas.TypeName[T](), name)
	return &CoarrayT[T]{
		co: pgas.NewTeamCoarray[T](im.w, key, n, v.T.Members()),
		v:  v,
	}
}

// Local returns this image's own slab.
func (c *CoarrayT[T]) Local(im *Image) []T { return pgas.Local(c.co, im.img) }

// Put writes src into the slab of image target (1-based, team of
// allocation) at offset off — the coarray assignment "A(off:...)[target] =
// src". One-sided and non-blocking; use SyncMemory or a barrier before the
// target reads it.
func (c *CoarrayT[T]) Put(im *Image, target, off int, src []T) {
	pgas.Put(im.img, c.co, c.v.T.GlobalRank(teamRank(c.v, "coarray put", "target", target)), off, src, pgas.ViaAuto)
}

// Get reads from the slab of image target (1-based) at offset off into dst,
// blocking until the data arrives — "dst = A(off:...)[target]".
func (c *CoarrayT[T]) Get(im *Image, target, off int, dst []T) {
	pgas.Get(im.img, c.co, c.v.T.GlobalRank(teamRank(c.v, "coarray get", "target", target)), off, dst)
}

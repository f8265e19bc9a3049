// Non-blocking (split-phase) collective intrinsics: initiate with an Async
// call, overlap local work, complete with Handle.Wait. A split-phase
// collective is the same algorithm the blocking call would run — whatever the
// hierarchy level or Tuning selects — executed on a
// coroutine whose flag waits yield to the image instead of blocking it. The
// returned Handle progresses whenever the image gives the runtime a chance —
// inside Handle.Wait, during Image.Compute (compute time is interleaved with
// progress polls), or on an explicit Image.Progress — so collective rounds
// advance behind computation instead of serializing after it.
//
// Rules, matching real split-phase collective APIs:
//
//   - the buffers handed to an Async call must not be read or written until
//     Wait returns (Test returning true is equivalent to Wait);
//   - Async calls are collective: every image of the team must make the
//     matching call, in the same order relative to its other collectives;
//   - every handle must be completed with Wait (or Test to completion) before
//     the image's body returns; a body that returns with one in flight fails
//     the run. A Wait that reports a failed image (WithStat) completes the
//     handle too: the operation is abandoned. On a team with a member already
//     announced failed the Async call itself reports it, like its blocking
//     twin, and initiates nothing.
//
// Operations of different kinds — or different element types/operations —
// may be in flight together and interleave freely; operations of the same
// kind, blocking and Async calls alike, are serialized per image in call
// order (a blocking call issued while an Async one of its kind is in flight
// first drives that one to completion).
package caf

import (
	"cafteams/internal/coll"
	"cafteams/internal/core"
	"cafteams/internal/pgas"
)

// Handle is the completion handle of a non-blocking collective. Wait blocks
// until the operation completes (progressing every in-flight operation of
// the image); Test polls without blocking; Done observes without
// progressing.
type Handle = core.Handle

// Progress gives the runtime an explicit chance to advance this image's
// in-flight non-blocking collectives without blocking, returning how many
// are still pending. Code that overlaps through Compute or Wait never needs
// it; spin loops over application conditions should call it each iteration.
func (im *Image) Progress() int { return im.img.Progress() }

// CoSumAsync initiates a non-blocking element-wise sum reduction across the
// current team (split-phase co_sum); every image holds the result in a
// after Wait. CoSumAsyncT is the generic form.
func (im *Image) CoSumAsync(a []float64) *Handle { return CoSumAsyncT(im, a) }

// CoMaxAsync initiates a non-blocking element-wise maximum reduction.
func (im *Image) CoMaxAsync(a []float64) *Handle { return CoMaxAsyncT(im, a) }

// CoMinAsync initiates a non-blocking element-wise minimum reduction.
func (im *Image) CoMinAsync(a []float64) *Handle { return CoMinAsyncT(im, a) }

// CoBroadcastAsync initiates a non-blocking broadcast of a from sourceImage
// (1-based, current team).
func (im *Image) CoBroadcastAsync(a []float64, sourceImage int) *Handle {
	return CoBroadcastAsyncT(im, a, sourceImage)
}

// CoAllgatherAsync initiates a non-blocking concatenation of every image's
// mine vector into out, ordered by team rank. out must hold
// NumImages()*len(mine) elements.
func (im *Image) CoAllgatherAsync(mine, out []float64) *Handle {
	return CoAllgatherAsyncT(im, mine, out)
}

// CoSumAsyncT initiates a non-blocking sum reduction for any numeric
// element type.
func CoSumAsyncT[T Numeric](im *Image, a []T) *Handle {
	im.guardTeam("co_sum")
	return allreduceAsync(im, a, coll.SumOp[T]())
}

// CoMaxAsyncT initiates a non-blocking maximum reduction for any numeric
// element type.
func CoMaxAsyncT[T Numeric](im *Image, a []T) *Handle {
	im.guardTeam("co_max")
	return allreduceAsync(im, a, coll.MaxOp[T]())
}

// CoMinAsyncT initiates a non-blocking minimum reduction for any numeric
// element type.
func CoMinAsyncT[T Numeric](im *Image, a []T) *Handle {
	im.guardTeam("co_min")
	return allreduceAsync(im, a, coll.MinOp[T]())
}

// CoReduceAsyncT initiates a non-blocking reduction with a caller-supplied
// associative, commutative operation. name keys the runtime's internal
// state; use one name per distinct operation.
func CoReduceAsyncT[T any](im *Image, a []T, name string, combine func(dst, src []T)) *Handle {
	im.guardTeam("co_reduce")
	return allreduceAsync(im, a, coll.Op[T]{Name: name, Combine: combine})
}

// CoBroadcastAsyncT initiates a non-blocking broadcast from sourceImage
// (1-based, current team) for any element type.
func CoBroadcastAsyncT[T any](im *Image, a []T, sourceImage int) *Handle {
	im.guardTeam("co_broadcast")
	v := im.view()
	root := teamRank(v, "co_broadcast", "source", sourceImage)
	name := im.pol.AlgFor(core.KindBroadcast, v, len(a), pgas.ElemSize[T]())
	return im.img.StartOp(func() { core.RunBroadcast(name, v, root, a) })
}

// CoAllgatherAsyncT initiates a non-blocking allgather for any element
// type.
func CoAllgatherAsyncT[T any](im *Image, mine, out []T) *Handle {
	im.guardTeam("co_allgather")
	v := im.view()
	name := im.pol.AlgFor(core.KindAllgather, v, len(mine), pgas.ElemSize[T]())
	return im.img.StartOp(func() { core.RunAllgather(name, v, mine, out) })
}

// allreduceAsync starts the team all-to-all reduction the blocking call would
// run — same policy, same algorithm — as a split-phase operation. The policy
// resolves the algorithm here, at initiation, as in every Async call: resolved
// inside the operation it would sit (a Policy by value and a frame) on the
// operation's own small coroutine stack, under every round of the collective.
func allreduceAsync[T any](im *Image, a []T, op coll.Op[T]) *Handle {
	v := im.view()
	name := im.pol.AlgFor(core.KindAllreduce, v, len(a), pgas.ElemSize[T]())
	return im.img.StartOp(func() { core.RunAllreduce(name, v, a, op) })
}

// compile-time check that the handle type is the pgas engine's handle (the
// caf and core aliases must stay in sync).
var _ *pgas.AsyncOp = (*Handle)(nil)

package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
)

// This file is the entry surface of the split-phase (non-blocking)
// collectives. There are no split-phase algorithms: a split-phase collective
// is a registry algorithm — any of them — run
// on a coroutine by the per-image progress engine in internal/pgas, where its
// flag waits yield to the image instead of blocking it.
//
// The "nb-rd", "nb-2level", "nb-binomial", "nb-ring" registry names are
// aliases resolved by Run* through onCoroutine, so sweeps and Tuning can put
// the progress engine under a cell.

// onCoroutine is what an "nb-" alias means: run the algorithm it prefixes as
// a split-phase operation, waited at once. A split-phase start of the alias
// is already on a coroutine and just runs the algorithm there — one
// operation per call either way, never one nested in another.
func onCoroutine(v *team.View, body func()) {
	if v.Img.Running() != nil {
		body()
		return
	}
	v.Img.StartOp(body).Wait()
}

// Handle is the completion handle of a split-phase collective: the caller
// initiates with Start*/Policy*Async, overlaps local work (Image.Compute
// progresses in-flight collectives), and completes with Wait. Test polls.
type Handle = pgas.AsyncOp

// StartAllreduce initiates the named allreduce algorithm on buf as a
// split-phase operation and returns its handle; buf must not be read or
// written until Wait.
func StartAllreduce[T any](name string, v *team.View, buf []T, op coll.Op[T]) *Handle {
	return v.Img.StartOp(func() { RunAllreduce(name, v, buf, op) })
}

// StartBroadcast initiates the named broadcast algorithm from team rank root
// as a split-phase operation.
func StartBroadcast[T any](name string, v *team.View, root int, buf []T) *Handle {
	return v.Img.StartOp(func() { RunBroadcast(name, v, root, buf) })
}

// StartAllgather initiates the named allgather algorithm of mine into out
// (ordered by team rank) as a split-phase operation.
func StartAllgather[T any](name string, v *team.View, mine, out []T) *Handle {
	return v.Img.StartOp(func() { RunAllgather(name, v, mine, out) })
}

// PolicyAllreduceAsync initiates a split-phase team allreduce with the
// algorithm the policy resolves, exactly like the blocking path.
func PolicyAllreduceAsync[T any](p Policy, v *team.View, buf []T, op coll.Op[T]) *Handle {
	return StartAllreduce(p.algFor(KindAllreduce, v, len(buf), pgas.ElemSize[T]()), v, buf, op)
}

// PolicyBroadcastAsync initiates a split-phase team broadcast from team rank
// root under the policy.
func PolicyBroadcastAsync[T any](p Policy, v *team.View, root int, buf []T) *Handle {
	return StartBroadcast(p.algFor(KindBroadcast, v, len(buf), pgas.ElemSize[T]()), v, root, buf)
}

// PolicyAllgatherAsync initiates a split-phase team allgather under the
// policy.
func PolicyAllgatherAsync[T any](p Policy, v *team.View, mine, out []T) *Handle {
	return StartAllgather(p.algFor(KindAllgather, v, len(mine), pgas.ElemSize[T]()), v, mine, out)
}

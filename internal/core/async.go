package core

import (
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
// initiates with Image.StartOp(func() { RunX(name, ...) }) — name from
// Policy.AlgFor, resolved at initiation, or any registry name — overlaps local
// work (Image.Compute progresses in-flight collectives), and completes with
// Wait. Test polls. The buffers handed to the collective must not be read or
// written until Wait.
type Handle = pgas.AsyncOp

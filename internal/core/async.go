package core

import "cafteams/internal/team"

// There are no split-phase algorithms: a split-phase (non-blocking)
// collective is a registry algorithm — any of them — run on a coroutine by
// the per-image progress engine in internal/pgas
// (Image.StartOp(func() { RunX(name, ...) }), completed with AsyncOp.Wait),
// where its flag waits yield to the image instead of blocking it. The public
// caf.Image.Async wraps a whole blocking call that way.
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

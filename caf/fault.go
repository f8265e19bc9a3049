// Failed-image semantics for the public API, following Fortran 2018: images
// can fail (by injected fault, node crash, or a panic in the body); blocked
// synchronization observes a peer's death as a status instead of hanging;
// survivors query FailedImages, re-form a team that excludes the dead
// (FormTeamSurvivors) and continue — the shrink-and-continue recovery MPI's
// ULFM standardizes.
//
// WithStat is the Fortran stat= specifier: the plain collective and
// synchronization calls panic with a *pgas.FailedImageError on failure (error
// termination cascades, as in Fortran); wrapped in WithStat — one call, e.g.
// im.WithStat(im.SyncAll), or a block of them — the failure becomes a Stat
// code so the image can run recovery code.
package caf

import (
	"fmt"

	"cafteams/internal/pgas"
)

// Fault-model types re-exported from the runtime layer.
type (
	// FaultPlan is a seeded, deterministic fault schedule for a run: node
	// and image kills, NIC degradation, per-link delay and drop.
	FaultPlan = pgas.FaultPlan
	// FaultEvent is one scheduled fault of a FaultPlan.
	FaultEvent = pgas.FaultEvent
	// DetectConfig configures timer-based failure detection (wait
	// timeouts, heartbeats). The zero value disables all timers.
	DetectConfig = pgas.DetectConfig
	// ImageFailure records one image's failure in a Report.
	ImageFailure = pgas.ImageFailure
)

// Fault event kinds.
const (
	FaultKillImage  = pgas.FaultKillImage
	FaultKillNode   = pgas.FaultKillNode
	FaultNICDegrade = pgas.FaultNICDegrade
	FaultLinkDelay  = pgas.FaultLinkDelay
	FaultLinkDrop   = pgas.FaultLinkDrop
)

// Stat is the status of a synchronization or collective episode, following
// the Fortran 2018 stat= convention.
type Stat int

const (
	// StatOK: the episode completed.
	StatOK Stat = iota
	// StatFailedImage: a failed image was detected during the episode
	// (STAT_FAILED_IMAGE). The caller's buffers are unspecified; query
	// FailedImages, form a survivor team and re-run the operation there.
	StatFailedImage
	// StatTimeout: the episode exceeded DetectConfig.WaitTimeout without
	// an announced failure to blame (a lost message, or an undetected
	// death).
	StatTimeout
)

func (s Stat) String() string {
	switch s {
	case StatOK:
		return "ok"
	case StatFailedImage:
		return "failed-image"
	case StatTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("stat(%d)", int(s))
	}
}

// FailedRunError is returned by Run when images failed during the run (the
// run itself still completes: surviving images run to the end of the body).
type FailedRunError struct{ Failures []ImageFailure }

func (e *FailedRunError) Error() string {
	first := e.Failures[0]
	detail := first.Cause
	if first.PanicValue != nil {
		detail = fmt.Sprintf("%s: %v", first.Cause, first.PanicValue)
	}
	return fmt.Sprintf("caf: %d image(s) failed during run (first: image %d, %s)",
		len(e.Failures), first.Rank+1, detail)
}

// WithStat runs f and converts an unrecovered failed-image condition inside
// it into a status code: StatOK when f returns, StatFailedImage or
// StatTimeout when a synchronization inside f observed a failure. Any other
// panic — including the runtime unwinding this image itself after a kill —
// propagates. It is the stat= form of every call: st := im.WithStat(func() {
// im.CoSum(a) }), or im.WithStat(h.Wait) for a split-phase one.
func (im *Image) WithStat(f func()) (st Stat) {
	defer func() {
		if r := recover(); r != nil {
			e := pgas.AsFailedImageError(r)
			if e == nil {
				panic(r)
			}
			if e.Timeout {
				st = StatTimeout
			} else {
				st = StatFailedImage
			}
		}
	}()
	f()
	return StatOK
}

// FailedImages returns the 1-based global indices of images announced
// failed so far, ascending — the Fortran FAILED_IMAGES intrinsic.
func (im *Image) FailedImages() []int {
	f := im.w.FailedImages()
	out := make([]int, len(f))
	for i, r := range f {
		out[i] = r + 1
	}
	return out
}

// AwaitFailedImages blocks until at least min images have been announced
// failed and returns them (1-based). It exists to rendezvous survivors
// before recovery: an image whose collective happened to complete just
// before a peer's death was announced uses it to join the survivors'
// FormTeamSurvivors instead of racing ahead on the old team.
func (im *Image) AwaitFailedImages(min int) []int {
	f := im.img.AwaitFailedImages(min)
	out := make([]int, len(f))
	for i, r := range f {
		out[i] = r + 1
	}
	return out
}

// FormTeamSurvivors forms a team of the current team's members minus every
// announced-failed image — the failed-image-excluding FORM TEAM of Fortran
// 2018 (ULFM's communicator shrink). Every surviving member of the current
// team must call it; the dead do not participate (that is the point: unlike
// FormTeam it communicates through no dead member). Use the returned team
// with ChangeTeam to re-run an interrupted collective on the survivor set —
// the fresh team carries fresh collective state, so the aborted episode
// cannot pollute the re-run.
func (im *Image) FormTeamSurvivors() *Team {
	return &Team{v: im.view().FormSurvivors()}
}

// guardTeam decides, at the entry of op, what the announced failures so far
// mean for the current team: if any failed image is a member, op would wait
// on the dead forever, so it fails fast with the same *pgas.FailedImageError
// a mid-episode detection raises (WithStat handles both identically). If none
// is — the failures belong to other teams, or were already excluded by a
// shrink — they are acknowledged, so op's waits are not interrupted on their
// account (only *new* announcements interrupt).
func (im *Image) guardTeam(op string) {
	w := im.w
	if !w.HasFailures() {
		return
	}
	epoch := w.FailureEpoch()
	fset := w.FailedImages()
	v := im.view()
	for _, g := range fset {
		if v.T.RankOf(g) >= 0 {
			panic(&pgas.FailedImageError{Failed: fset, Op: op})
		}
	}
	im.img.AckFailuresUpTo(epoch)
}

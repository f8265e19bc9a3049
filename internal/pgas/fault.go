package pgas

// Fault model for the PGAS runtime, modeled on Fortran 2018 failed-image
// semantics (STAT_FAILED_IMAGE, FAILED_IMAGES, teams that exclude the dead)
// and MPI ULFM's shrink-and-continue recovery:
//
//   - Injection: a seeded, deterministic FaultPlan describes image/node
//     kills, NIC degradation and per-link delay/drop, applied at the
//     Transport seam. The sim backend drops and kills through the event
//     queue; the native backend kills image goroutines and poisons their
//     flag cells. Both backends run the same plans.
//   - Detection: failure *announcements* are event-driven and always on —
//     the moment an image is marked failed, every blocked waiter in the
//     world is woken and observes the failure as a *FailedImageError
//     instead of hanging. Timers (per-wait timeouts, per-image heartbeats)
//     are opt-in via DetectConfig; the zero value means "no timers", so
//     timing-asserting simulations are byte-identical with the fault layer
//     compiled in.
//   - Semantics: an uncaught *FailedImageError terminates the observing
//     image too (error termination cascades, as in Fortran); a caller that
//     wants to survive recovers it (the caf package's WithStat/…Stat
//     variants), queries FailedImages, re-forms a shrunken team and retries.
//
// Everything here is per-World: co-scheduled jobs on one simulated cluster
// fail independently.

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cafteams/internal/sim"
)

// FaultKind identifies one kind of injected fault.
type FaultKind int

const (
	// FaultKillImage kills one image (global rank Image) at time At.
	FaultKillImage FaultKind = iota
	// FaultKillNode kills every image of this world hosted on node Node.
	FaultKillNode
	// FaultNICDegrade multiplies node Node's NIC occupancy by Factor (>1
	// slows it down) for Duration (0 = permanently). Sim backend only. Like
	// the two link faults it acts on every inter-node leg that touches its
	// target, Get and atomic round trips (request and response) included.
	FaultNICDegrade
	// FaultLinkDelay adds Delay to every message Node→Node2 for Duration.
	// Sim backend only.
	FaultLinkDelay
	// FaultLinkDrop drops each message Node→Node2 with probability Factor
	// (drawn from the plan's seeded stream) for Duration. Sim backend only.
	FaultLinkDrop
)

func (k FaultKind) String() string {
	switch k {
	case FaultKillImage:
		return "kill-image"
	case FaultKillNode:
		return "kill-node"
	case FaultNICDegrade:
		return "nic-degrade"
	case FaultLinkDelay:
		return "link-delay"
	case FaultLinkDrop:
		return "link-drop"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultEvent is one scheduled fault.
type FaultEvent struct {
	At   Time
	Kind FaultKind

	Image int // FaultKillImage: global rank to kill
	Node  int // FaultKillNode / FaultNICDegrade / link source node
	Node2 int // link destination node

	// Factor is the NIC occupancy multiplier (FaultNICDegrade, in [1, 1e6])
	// or the per-message drop probability (FaultLinkDrop, in [0,1]).
	Factor float64
	// Delay is the extra per-message latency for FaultLinkDelay.
	Delay Time
	// Duration bounds NIC/link faults; 0 means permanent. Ignored by kills
	// (death is permanent). At, Delay and Duration are at most MaxInt64/4.
	Duration Time

	// Silent suppresses the kill announcement: the image stops executing
	// but peers learn of its death only through heartbeat staleness or wait
	// timeouts — a fail-stop crash as the network actually sees it.
	// Non-silent kills model a cluster manager that broadcasts the death.
	Silent bool
}

// maxNICFactor is the largest FaultNICDegrade factor a plan may carry: an
// occupancy inflated at both ends (factor squared) must stay a Time, and a NaN,
// an infinity or 1e300 converts to a negative one — every message through that
// NIC free. A NIC a million times slower is a dead node; kill it instead.
const maxNICFactor = 1e6

// maxFaultTime bounds At, Duration and Delay (73 simulated years): the repair
// at At+Duration and an arrival a Delay after a send in that span cannot wrap
// into the past — a delayed message would arrive early.
const maxFaultTime Time = math.MaxInt64 / 4

// FaultPlan is a deterministic fault schedule: the same plan and seed
// produce the same simulated execution. Seed feeds the drop-probability
// stream (and nothing else).
type FaultPlan struct {
	Seed   int64
	Events []FaultEvent
}

// DetectConfig configures timer-based failure detection. The zero value
// disables all timers: announcements still propagate, but a silent death
// with no heartbeats and no timeouts hangs its waiters (surfacing as a
// simulated deadlock on the sim backend) — exactly the pre-fault-layer
// behavior, which keeps timing-asserting tests unaffected.
type DetectConfig struct {
	// WaitTimeout bounds every blocking wait (WaitFlagGE, Quiet, a Get or
	// remote atomic lost on the wire, collective episodes, built from these).
	// A wait that exceeds it raises a *FailedImageError with Timeout set.
	// 0 disables.
	WaitTimeout Time
	// Heartbeat enables per-image liveness stamps at this period; a
	// monitor declares an image failed when its stamp goes stale by more
	// than 3 periods. 0 disables.
	Heartbeat Time
}

// Enabled reports whether any timer-based detection is configured.
func (c DetectConfig) Enabled() bool { return c.WaitTimeout > 0 || c.Heartbeat > 0 }

// staleAfter is the heartbeat staleness threshold.
func (c DetectConfig) staleAfter() Time { return 3 * c.Heartbeat }

// ImageFailure records one image's failure.
type ImageFailure struct {
	Rank  int    // global rank
	At    Time   // detection time (simulated, or wall ns since world start)
	Cause string // "killed", "panic", "heartbeat", "aborted (failed peer)"
	// PanicValue holds the recovered panic value when Cause is "panic".
	PanicValue interface{}
}

// Failure causes.
const (
	CauseKilled    = "killed"
	CausePanic     = "panic"
	CauseHeartbeat = "heartbeat"
	CauseCascade   = "aborted (failed peer)"
)

// FailedImageError is the STAT_FAILED_IMAGE-equivalent: the error a blocked
// operation observes when a peer has failed (or, with Timeout set, when the
// wait exceeded DetectConfig.WaitTimeout without an announced failure to
// blame). It unwinds the observing image unless recovered; the caf package's
// status-returning variants recover it and hand back a status code.
type FailedImageError struct {
	Failed  []int  // announced failed images (global ranks, ascending)
	Timeout bool   // the wait timed out rather than observing an announcement
	Op      string // the operation that was blocked
}

func (e *FailedImageError) Error() string {
	if e.Timeout {
		return fmt.Sprintf("pgas: %s timed out (failed images: %v)", e.Op, e.Failed)
	}
	return fmt.Sprintf("pgas: failed image detected during %s (failed: %v)", e.Op, e.Failed)
}

// imageKilled unwinds a killed image on the native backend (the sim backend
// uses the kernel's sim.Killed). Swallowed by the launch wrapper.
type imageKilled struct{ rank int }

// IsKillUnwind reports whether a recovered panic value is the runtime's
// kill sentinel (either backend's). Cleanup layers that recover around an
// image body use it to tell a forced termination from a genuine panic.
func IsKillUnwind(r interface{}) bool {
	if _, ok := r.(imageKilled); ok {
		return true
	}
	if _, ok := r.(sim.Killed); ok {
		return true
	}
	return false
}

// AsFailedImageError returns the *FailedImageError inside a recovered panic
// value, or nil.
func AsFailedImageError(r interface{}) *FailedImageError {
	if e, ok := r.(*FailedImageError); ok {
		return e
	}
	return nil
}

// faultCtx is a world's failure state. It always exists (newWorld creates
// it) so failure observation is unconditional; the injection and timer
// machinery stays inert until a plan or DetectConfig arrives.
type faultCtx struct {
	w   *World
	cfg DetectConfig

	// contain makes the launch wrapper recover arbitrary panics in image
	// bodies and record them as failures instead of re-raising. Set before
	// Launch (by caf, or implicitly by enabling any fault machinery).
	contain bool

	plan *FaultPlan

	// epoch counts failure announcements. Every blocking wait of image r is
	// interrupted (raising *FailedImageError) while epoch != ackEpoch[r]:
	// ackEpoch[r] is the announcement count image r has *acknowledged* —
	// advanced only when the image establishes that the failures announced
	// so far cannot deadlock what it is about to do (team verified clean at
	// a collective entry, or a survivor team formed that excludes them).
	// Snapshotting at wait entry instead would lose announcements that
	// arrive while the image is computing between two waits of one
	// collective, leaving it to block forever on a dead peer's flag.
	// ackEpoch[r] is touched only by image r's own execution context.
	// failedBit/deadBit/doneBit are per-rank atomics: failed = announced
	// dead, dead = stopped executing (possibly unannounced), done = body
	// returned normally.
	epoch     int64
	nFailed   int64
	ackEpoch  []int64
	failedBit []int32
	deadBit   []int32
	doneBit   []int32

	mu       sync.Mutex
	failures []ImageFailure

	// Heartbeat stamps (atomic), valid when cfg.Heartbeat > 0.
	hbStamp []int64

	// Native-backend teardown for timers and heartbeat goroutines.
	stopOnce sync.Once
	stopCh   chan struct{}
	timers   []*time.Timer
}

func newFaultCtx(w *World) *faultCtx {
	n := w.topo.NumImages()
	return &faultCtx{
		w:         w,
		ackEpoch:  make([]int64, n),
		failedBit: make([]int32, n),
		deadBit:   make([]int32, n),
		doneBit:   make([]int32, n),
		stopCh:    make(chan struct{}),
	}
}

func (fc *faultCtx) epochLoad() int64    { return atomic.LoadInt64(&fc.epoch) }
func (fc *faultCtx) failedCount() int64  { return atomic.LoadInt64(&fc.nFailed) }
func (fc *faultCtx) isFailed(r int) bool { return atomic.LoadInt32(&fc.failedBit[r]) != 0 }
func (fc *faultCtx) isDead(r int) bool   { return atomic.LoadInt32(&fc.deadBit[r]) != 0 }
func (fc *faultCtx) markDead(r int)      { atomic.StoreInt32(&fc.deadBit[r], 1) }
func (fc *faultCtx) markDone(r int)      { atomic.StoreInt32(&fc.doneBit[r], 1) }
func (fc *faultCtx) isDone(r int) bool   { return atomic.LoadInt32(&fc.doneBit[r]) != 0 }

// announce marks rank failed, records the failure, bumps the epoch and
// wakes every waiter in the world so blocked operations observe the death.
// Idempotent per rank. Safe from any goroutine on the native backend; sim
// calls happen in scheduler context.
func (fc *faultCtx) announce(rank int, at Time, cause string, panicValue interface{}) {
	if !atomic.CompareAndSwapInt32(&fc.failedBit[rank], 0, 1) {
		return
	}
	fc.markDead(rank)
	fc.mu.Lock()
	fc.failures = append(fc.failures, ImageFailure{Rank: rank, At: at, Cause: cause, PanicValue: panicValue})
	fc.mu.Unlock()
	atomic.AddInt64(&fc.nFailed, 1)
	// The bit and record are published before the epoch moves: a waiter
	// that observes the new epoch always sees this failure in snapshots.
	atomic.AddInt64(&fc.epoch, 1)
	fc.w.tr.WakeAll(fc.w)
}

// sweepStale is the failure detector of both backends, a function of now and
// the heartbeat stamps only: every image still running whose stamp is older
// than the staleness threshold is announced failed. It reports whether any
// image is left to watch; a backend calls it every heartbeat period until not.
func (fc *faultCtx) sweepStale(now Time) (watching bool) {
	for r := range fc.hbStamp {
		switch {
		case fc.isDone(r) || fc.isFailed(r):
		case now-atomic.LoadInt64(&fc.hbStamp[r]) > fc.cfg.staleAfter():
			fc.announce(r, now, CauseHeartbeat, nil)
		default:
			watching = true
		}
	}
	return watching
}

// applyKill executes one planned kill (of an image, or of every image on a
// node) at time now, which a backend calls at ev.At. Non-silent kills are
// announced at once (a cluster manager broadcasting the death), silent ones
// are left for heartbeats or wait timeouts to discover.
func (fc *faultCtx) applyKill(ev FaultEvent, now Time) {
	for _, im := range fc.w.images {
		if ev.Kind == FaultKillImage && im.rank != ev.Image || ev.Kind == FaultKillNode && im.node != ev.Node {
			continue
		}
		if fc.isDone(im.rank) || fc.isDead(im.rank) {
			continue
		}
		fc.w.tr.Kill(fc.w, im.rank)
		if !ev.Silent {
			fc.announce(im.rank, now, CauseKilled, nil)
		}
	}
}

// failedSnapshot returns the announced failed images, ascending.
func (fc *faultCtx) failedSnapshot() []int {
	var out []int
	for r := range fc.failedBit {
		if fc.isFailed(r) {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// failError builds the error a blocked wait raises.
func (fc *faultCtx) failError(op string, timeout bool) *FailedImageError {
	return &FailedImageError{Failed: fc.failedSnapshot(), Timeout: timeout, Op: op}
}

// imageDone classifies how an image body ended. r is the recovered panic
// value (nil for a normal return). Runs inside the launch wrapper's defer,
// on the image's own execution context.
func (fc *faultCtx) imageDone(im *Image, r interface{}) {
	// Whatever ended the body, no split-phase coroutine outlives it. A body
	// that returns normally with operations in flight broke the split-phase
	// contract (every handle is completed with Wait): that is a programming
	// error, reported like a panic.
	if n := im.stopOps(); n > 0 && r == nil {
		r = fmt.Errorf("pgas: image %d returned with %d split-phase operation(s) unfinished (complete every handle with Wait)", im.rank, n)
	}
	switch {
	case r == nil:
		fc.markDone(im.rank)
	case IsKillUnwind(r):
		// The killer already marked (and possibly announced) the death.
		fc.markDead(im.rank)
	case AsFailedImageError(r) != nil:
		// The image observed a peer failure and did not recover: error
		// termination cascades, Fortran-style.
		fc.announce(im.rank, im.Now(), CauseCascade, nil)
	default:
		if !fc.contain {
			// Legacy behavior for raw pgas worlds with no fault machinery:
			// a programming-error panic propagates to the driver.
			panic(r)
		}
		fc.announce(im.rank, im.Now(), CausePanic, r)
	}
}

// stop tears down native timers and heartbeat goroutines; idempotent.
func (fc *faultCtx) stop() {
	fc.stopOnce.Do(func() {
		close(fc.stopCh)
		for _, t := range fc.timers {
			t.Stop()
		}
	})
}

// --- World / Image fault surface -----------------------------------------

// ContainPanics makes a panic inside an image body terminate only that
// image: the panic is recovered, recorded as an ImageFailure (with the
// panic value) and announced to the surviving images. Without it a panic
// propagates out of Run/Drive (sim) or crashes the process (native). The
// caf layer always contains; enabling any fault machinery (SetDetect with
// timers, InjectFaults, KillImage) also implies containment. Must be called
// before Launch.
func (w *World) ContainPanics() { w.faults.contain = true }

// SetDetect configures timer-based failure detection. Must be called before
// Launch. The zero DetectConfig is valid and means "no timers".
func (w *World) SetDetect(cfg DetectConfig) {
	if cfg.WaitTimeout < 0 || cfg.Heartbeat < 0 {
		panic("pgas: negative DetectConfig durations")
	}
	w.faults.cfg = cfg
	if cfg.Enabled() {
		w.faults.contain = true
		w.faults.hbStamp = make([]int64, w.topo.NumImages())
	}
}

// Detect returns the world's detection configuration.
func (w *World) Detect() DetectConfig { return w.faults.cfg }

// InjectFaults installs a fault plan, applied when the world launches.
// Must be called before Launch. The native backend honors kill events
// (FaultKillImage/FaultKillNode, At interpreted as wall-clock ns since
// launch); NIC and link faults are sim-only and ignored natively — there is
// no modeled network to degrade in one address space.
func (w *World) InjectFaults(plan *FaultPlan) error {
	n := w.topo.NumImages()
	nodes := w.topo.NumNodes()
	lastsPast := func(ev FaultEvent, t Time) bool { return ev.Duration == 0 || ev.At+ev.Duration > t }
	for i, ev := range plan.Events {
		switch ev.Kind {
		case FaultKillImage:
			if ev.Image < 0 || ev.Image >= n {
				return fmt.Errorf("pgas: fault event %d kills image %d of %d", i, ev.Image, n)
			}
		case FaultKillNode, FaultNICDegrade:
			if ev.Node < 0 || ev.Node >= nodes {
				return fmt.Errorf("pgas: fault event %d targets node %d of %d", i, ev.Node, nodes)
			}
			// Written so that a NaN fails it: NaN < 1 is false.
			if ev.Kind == FaultNICDegrade && !(ev.Factor >= 1 && ev.Factor <= maxNICFactor) {
				return fmt.Errorf("pgas: fault event %d has NIC factor %v outside [1, %g]", i, ev.Factor, maxNICFactor)
			}
		case FaultLinkDelay, FaultLinkDrop:
			if ev.Node < 0 || ev.Node >= nodes || ev.Node2 < 0 || ev.Node2 >= nodes {
				return fmt.Errorf("pgas: fault event %d targets link %d->%d of %d nodes", i, ev.Node, ev.Node2, nodes)
			}
			if ev.Kind == FaultLinkDrop && !(ev.Factor >= 0 && ev.Factor <= 1) {
				return fmt.Errorf("pgas: fault event %d has drop probability %v", i, ev.Factor)
			}
		default:
			return fmt.Errorf("pgas: fault event %d has unknown kind %d", i, int(ev.Kind))
		}
		if min(ev.At, ev.Duration, ev.Delay) < 0 || max(ev.At, ev.Duration, ev.Delay) > maxFaultTime {
			return fmt.Errorf("pgas: fault event %d has a time outside [0, %d]", i, maxFaultTime)
		}
		// A repair restores the healthy value, whoever degraded it: of two
		// windows open at once on one NIC or link the first repair would end
		// the second fault too (a permanent fault is open ever after).
		for j, prev := range plan.Events[:i] {
			if ev.Kind != FaultKillImage && ev.Kind != FaultKillNode && prev.Kind == ev.Kind && prev.Node == ev.Node &&
				(ev.Kind == FaultNICDegrade || prev.Node2 == ev.Node2) && lastsPast(prev, ev.At) && lastsPast(ev, prev.At) {
				return fmt.Errorf("pgas: fault event %d overlaps event %d (%s on the same target)", i, j, ev.Kind)
			}
		}
	}
	w.faults.plan = plan
	w.faults.contain = true
	return nil
}

// KillImage forcibly terminates image rank, announcing the death to the
// survivors. On the sim backend it must be called from simulation context
// (an event function or another image's process) — typically by the cluster
// scheduler's node-failure events; use InjectFaults for pre-planned kills.
// On the native backend it may be called from any goroutine.
func (w *World) KillImage(rank int) {
	w.faults.contain = true
	w.tr.Kill(w, rank)
	w.faults.announce(rank, w.killTime(), CauseKilled, nil)
}

// killTime returns "now" for failure records without an Image context.
func (w *World) killTime() Time {
	if w.sim != nil {
		return w.sim.env.Now()
	}
	if w.native.start.IsZero() {
		return 0 // not launched yet
	}
	//caflint:allow wallclock -- native-backend branch: real elapsed time is the backend's clock
	return time.Since(w.native.start).Nanoseconds()
}

// FailedImages returns the global ranks of announced failed images,
// ascending — the FAILED_IMAGES intrinsic. Safe from any context.
func (w *World) FailedImages() []int { return w.faults.failedSnapshot() }

// FailureEpoch returns the current announcement count. Read it *before*
// inspecting FailedImages, then pass it to AckFailuresUpTo once the
// announced failures are established harmless: a failure announced between
// the two reads is then conservatively left unacknowledged.
func (w *World) FailureEpoch() int64 { return w.faults.epochLoad() }

// AckFailuresUpTo acknowledges failure announcements up to the given epoch
// for this image: blocking waits stop being interrupted on their account.
// Blocked operations raise *FailedImageError while announcements this image
// has not acknowledged exist — including announcements that predate the
// wait, since an unacknowledged dead peer may be exactly the image whose
// notify is being waited for. Acknowledge only after verifying the failed
// set cannot deadlock the upcoming operations: the caf layer does so at
// collective entry when the current team has no failed member, and
// FormSurvivors does for the failures its new team excludes. Only this
// image's own execution context may call it; it never moves backwards.
func (im *Image) AckFailuresUpTo(epoch int64) {
	fc := im.w.faults
	if epoch > fc.ackEpoch[im.rank] {
		fc.ackEpoch[im.rank] = epoch
	}
}

// HasFailures reports cheaply whether any image has been announced failed.
func (w *World) HasFailures() bool { return w.faults.failedCount() > 0 }

// ObserveImageEnd classifies how an image body ended, for layers that wrap
// bodies with their own teardown (the caf launch path) and must have the
// failure recorded before running completion callbacks. r is the recovered
// panic value, nil for a normal return. Announcements are idempotent, so
// the launch wrapper's own classification afterwards is harmless.
func (w *World) ObserveImageEnd(im *Image, r interface{}) { w.faults.imageDone(im, r) }

// Failures returns the failure records accumulated so far, in announcement
// order.
func (w *World) Failures() []ImageFailure {
	fc := w.faults
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return append([]ImageFailure(nil), fc.failures...)
}

// AwaitFailedImages blocks until at least min images have been announced
// failed and returns the failed set. Unlike the implicit failure checks in
// flag waits it does not raise: it exists precisely to rendezvous survivors
// *after* a failure, before re-forming a team — an image whose collective
// happened to complete before the announcement uses it to join the
// survivors' recovery instead of racing ahead.
func (im *Image) AwaitFailedImages(min int) []int {
	fc := im.w.faults
	if sw := im.w.sim; sw != nil {
		sw.rowCond[im.rank].Wait(sw.img[im.rank].proc, "await failed images",
			func() bool { return fc.failedCount() >= int64(min) })
	} else {
		nativeAwaitFailed(im, min)
	}
	return fc.failedSnapshot()
}

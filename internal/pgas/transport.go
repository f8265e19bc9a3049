package pgas

// Time is a pgas timestamp or duration in nanoseconds. On the sim backend it
// is discrete-event simulated time (interchangeable with sim.Time); on the
// native backend it is wall-clock time since Launch.
type Time = int64

// Common durations, in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Transport is the narrow seam between the backend-agnostic PGAS surface
// (Image, World, Coarray, Flags, atomics, events, the split-phase progress
// engine) and a concrete execution substrate. Everything above this
// interface — internal/coll, internal/core, internal/team, caf — is written
// against Image/World/Coarray/Flags only and never sees which transport is
// underneath.
//
// A backend's state is its transport: each implementation holds its world's
// per-rank state and a back-pointer to the World, World.tr is the world's
// only backend handle, and no file outside the backend's own names its type
// (caflint's seams table, internal/lint/seams.go). Two implementations exist:
//
//   - simTransport (simbackend.go): images are deterministic simulated
//     processes on a discrete-event kernel; every operation is charged
//     through the machine model and serialized through per-node NIC /
//     progress-engine / memory-bus resources. Time is simulated time.
//
//   - nativeTransport (nativebackend.go): images are real goroutines in one
//     shared address space; puts and gets are inline memcpys, flags are
//     sync/atomic cells, a wait is an atomic load that parks on the owner
//     rank's condition variable only when the flag is not there yet, and
//     time is the wall clock since Launch.
//
// Contract notes that keep the two backends observably equivalent (the
// cross-backend conformance mode relies on these):
//
//   - Flag cells are mutated exclusively through sync/atomic (see
//     Flags.load/add/storeMax), on both backends, so a flag arrival
//     establishes a happens-before edge from the sender's preceding payload
//     writes to any waiter that observes it.
//   - Put/PutThenNotify commit functions run at most once: none for a
//     message lost on the wire. PutThenNotify's flag increment never becomes
//     visible before its payload commit (ordered delivery per image pair —
//     the put+flag idiom). A payload written at issue (nil commit, a
//     write-at-issue coarray) is visible at once; its coarray's guard stands
//     in for the late commit, refusing reads before the returned landing time.
//   - WaitFlagGE and Await return only when their threshold or predicate
//     holds; any mutation of an image's flag rows eventually wakes that
//     image's waiters (WakeRank is the explicit hook for local stores). A
//     wake-up may be skipped when nobody waits, never lost: the native
//     backend counts registered waiters per rank, and a waiter re-checks its
//     predicate after registering.
//   - A killed image unwinds at its next transport call whether or not
//     that call would have had to wait; failure announcements and
//     WaitTimeout are observed only by a wait whose predicate does not
//     already hold.
//   - Helpers compute, transport methods block: an image parks (sender
//     overhead, flag wait, round trip, Quiet) only in a method of this
//     interface or the backend's wait primitive, never in what the method
//     calls on the way (the sim's route and deliver* helpers). A block hidden
//     in a helper is one more frame under every one of 4096 parked images
//     (caflint's seams table, bench.TestStackBudget, TestPutChainFrames).
//   - A modeled message is charged by the sim's route and nowhere else: a put,
//     a notify, and each leg of a Get or remote atomic round trip occupy NIC,
//     progress engine or memory bus there, and are lost at one gate (dropped),
//     so a NIC or link fault reaches every inter-node leg (the same table).
type Transport interface {
	// Name identifies the backend: "sim" or "native".
	Name() string

	// Launch spawns every image of the world running body; Drive blocks
	// until all images have finished, tears down what Launch started, and
	// returns the end time.
	Launch(body func(*Image))
	Drive() Time

	// Now is the world clock: simulated time, or wall-clock nanoseconds
	// since Launch (0 before it).
	Now() Time
	// Sleep charges d nanoseconds of local busy time to im.
	Sleep(im *Image, d Time)
	// MemWork charges local memory traffic (packing, combining) of nbytes.
	// The native backend treats this as a no-op: the memcpys it accounts
	// for in the simulator happen for real there.
	MemWork(im *Image, nbytes int)

	// Put issues a one-sided write of nbytes to target over via (already
	// resolved: ViaShm or ViaConduit); commit lands the payload. The caller
	// may proceed before delivery; Quiet drains it.
	Put(im *Image, target, nbytes int, via Via, commit func())
	// Get performs a blocking one-sided read of nbytes from target: it
	// returns once the payload may be read, and the caller copies it.
	Get(im *Image, target, nbytes int)
	// PutThenNotify issues a Put followed by a flag increment on the same
	// target, with the flag guaranteed to land after the payload, and returns
	// when the payload lands (never: a pair lost on the wire). A nil commit
	// means the caller wrote the payload at issue (a write-at-issue coarray):
	// the data leg is charged and delivered as ever, and lands nothing.
	PutThenNotify(im *Image, target, nbytes int, via Via, commit func(), f *Flags, idx int, delta int64) Time
	// Quiet blocks until every one-sided operation issued by im has been
	// delivered (CAF "sync memory" / GASNet quiet).
	Quiet(im *Image)

	// Notify updates flag idx on image target by op, non-blocking: flagAdd
	// atomically adds val, flagMax raises the flag to val if below
	// (monotonic max). It wakes target's waiters on delivery.
	Notify(im *Image, f *Flags, target, idx int, val int64, op uint8, via Via)
	// FetchOp / CompareAndSwap are blocking remote read-modify-writes on a
	// flag cell, returning the previous value.
	FetchOp(im *Image, f *Flags, target, idx int, op AtomicOp, operand int64) int64
	CompareAndSwap(im *Image, f *Flags, target, idx int, expected, desired int64) int64

	// WaitFlagGE blocks im until flag idx on image owner reaches min.
	WaitFlagGE(im *Image, f *Flags, owner, idx int, min int64)
	// Await blocks im until ready() holds; ready is re-evaluated whenever a
	// flag lands on im's rows or WakeAll runs. With raise it unwinds on a
	// failure announcement or WaitTimeout like WaitFlagGE (the progress
	// engine's wait); without, it never raises, for a wait on the failure
	// announcements themselves (AwaitFailedImages). why names the wait in
	// deadlock reports and failure errors.
	Await(im *Image, why string, ready func() bool, raise bool)
	// WakeRank wakes rank's flag waiters and progress engine after a local
	// (un-routed) flag mutation such as SetLocal.
	WakeRank(rank int)

	// Kill forcibly terminates image rank's execution: the sim backend
	// unwinds its simulated process at its current or next blocking point,
	// the native backend poisons the image so its next runtime call (or
	// current wait) unwinds its goroutine. Kill only stops execution; the
	// caller (World.KillImage, the fault plan) decides whether and when the
	// death is announced.
	Kill(rank int)
	// WakeAll wakes every blocked waiter in the world (all ranks' flag
	// waiters, Quiet waiters, callers of a lost Get or atomic) so they
	// re-check their predicates against the failure state. This is how a
	// failure announcement or timeout turns a hang into a status.
	WakeAll()

	// Immediate reports whether one-sided operations complete inside the
	// call (shared memory). The typed front end (coarray.go) then lands
	// payloads itself, straight from the caller's buffer, and passes a nil
	// commit: Put is the admission check only, and a put+flag is Put, the
	// inline copy, then Notify.
	Immediate() bool
}

// The flag updates a Notify carries. The sim backend's delivery records take
// them as their kind.
const (
	flagAdd uint8 = iota // add val
	flagMax              // raise to val if below (monotonic max)
)

package pgas

import (
	"errors"
	"iter"
	"slices"
)

// This file implements the per-image progress engine behind split-phase
// (non-blocking) collectives. A split-phase operation is not a second
// implementation of its algorithm: it is the blocking algorithm body run on
// a coroutine (iter.Pull). Every wait of the collective layers is a
// WaitFlagGE on the caller's own flag row; inside such a body an unmet wait
// records its (flags, slot, threshold) on the operation's handle and yields
// to the image instead of parking it (see Image.WaitFlagGE). The image
// resumes the body — without ever blocking on its behalf — whenever it gives
// the runtime a chance to make progress:
//
//   - AsyncOp.Wait drives the engine until the handle's operation completes;
//   - Image.Compute interleaves progress polls with the compute time, the
//     overlap the split-phase API exists for;
//   - Image.Progress polls explicitly (the CAF-style "advance the runtime"
//     call for code that spins on its own condition).
//
// An image keeps the coroutines whose body has returned and runs its next
// operations on them, so a steady stream of split-phase calls creates none.
//
// The engine itself is deliberately dumb: it round-robins over every
// in-flight operation, in initiation order, and resumes the ones whose
// recorded condition holds. All protocol knowledge (rounds, parity regions,
// flow control) lives in the one algorithm text in internal/coll and
// internal/core.

// AsyncOp is the handle for one in-flight split-phase operation. The image
// that started the operation — and only that image — completes it with Wait
// (or observes it with Test/Done).
type AsyncOp struct {
	im   *Image
	body func()
	co   *coroutine // runs body; nil once the body has ended

	done    bool // the body returned, panicked or was stopped
	stopped bool // halt was called; the body unwinds with errStopped

	// The condition a parked body needs before it can advance: slot idx of
	// this image's own row of f reaching min, or — when on is set — another
	// operation of this image completing.
	f   *Flags
	idx int
	min int64
	on  *AsyncOp
}

// coroutine runs split-phase bodies, one operation after another: an image
// keeps the coroutines whose body has returned and hands them its next
// operations, so in steady state starting one creates no coroutine.
type coroutine struct {
	next func() (struct{}, bool)
	stop func()
	// yield parks the coroutine; it returns false when it was stopped and
	// must unwind.
	yield func(struct{}) bool
	h     *AsyncOp // the operation whose body it is running, nil when idle
}

// errStopped unwinds the body of a stopped operation from its yield point.
var errStopped = errors.New("pgas: split-phase operation stopped")

// Done reports whether the operation has completed. It does not progress
// the engine; see Test.
func (h *AsyncOp) Done() bool { return h.done }

// Test polls the progress engine once and reports whether the operation has
// completed — the non-blocking probe (MPI_Test / CAF "query").
func (h *AsyncOp) Test() bool {
	if !h.done {
		h.im.Progress()
	}
	return h.done
}

// Wait drives the progress engine until this operation completes, blocking
// the image between polls on the conditions the in-flight operations
// recorded. Waiting also progresses every other in-flight operation of the
// image (their steps may be prerequisites for remote images' progress).
// Called from inside another split-phase body it yields that body until the
// operation completes. A Wait on the blocking path that unwinds (a failed
// image observed, a kill) abandons the operation: its body is stopped and the
// handle is finished. It stops that one body only — an operation some body
// started and was itself waiting on stays the starter's to complete, which is
// why nothing in this repo nests one (see core.onCoroutine).
func (h *AsyncOp) Wait() {
	im := h.im
	if cur := im.cur; cur != nil {
		for !h.done {
			cur.on = h
			cur.park()
		}
		return
	}
	defer h.halt()
	for !h.done {
		im.Progress()
		if h.done {
			break
		}
		im.awaitAsyncActivity()
	}
}

// StartOp runs body on a coroutine up to its first unmet wait and, if it did
// not complete by then, registers it with this image's progress engine. The
// caller must complete the returned handle with Wait (or poll Test to
// completion) before the image finishes. A panic inside body reaches the
// image at whichever call resumed it, exactly as it would from a direct
// call.
func (im *Image) StartOp(body func()) *AsyncOp {
	h := &AsyncOp{im: im, body: body}
	if n := len(im.idle); n > 0 {
		h.co, im.idle = im.idle[n-1], im.idle[:n-1]
	} else {
		h.co = newCoroutine()
	}
	h.co.h = h
	h.resume()
	if !h.done {
		im.pendingOps = append(im.pendingOps, h)
	}
	return h
}

func newCoroutine() *coroutine {
	co := &coroutine{}
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		for co.run() && yield(struct{}{}) { // parked idle until the next operation
		}
	})
	return co
}

// run executes the body of the operation the coroutine was handed and
// reports whether the coroutine can take another: not after a stop.
func (co *coroutine) run() bool {
	h := co.h
	defer func() {
		if h.stopped {
			_ = recover() // errStopped, raised by park
		}
	}()
	h.body()
	co.h = nil
	return true
}

// Running returns the split-phase operation whose body is executing on this
// image, nil on the blocking path.
func (im *Image) Running() *AsyncOp { return im.cur }

// resume runs the body until its next unmet wait or its end. A body that
// panics is finished, and so is its coroutine; the panic propagates to the
// caller.
func (h *AsyncOp) resume() {
	im, co := h.im, h.co
	prev := im.cur
	im.cur = h
	finished, reusable := true, false
	defer func() {
		im.cur, h.done = prev, finished
		if reusable {
			h.co, im.idle = nil, append(im.idle, co)
		}
		if finished {
			h.release()
		}
	}()
	co.next()
	finished = co.h != h
	reusable = finished
}

// release drops what a finished handle no longer needs. Handles outlive their
// operation (the caller keeps them, a collective state remembers its last
// holder); the body closure, which captures the caller's buffers, must not.
func (h *AsyncOp) release() { h.body, h.f, h.on = nil, nil, nil }

// park yields the running body to the image until the engine finds its
// recorded condition satisfied.
func (h *AsyncOp) park() {
	if !h.co.yield(struct{}{}) {
		panic(errStopped)
	}
}

// ready reports whether a parked body's recorded condition holds.
func (h *AsyncOp) ready() bool {
	if h.on != nil {
		return h.on.done
	}
	return h.f.load(h.im.rank, h.idx) >= h.min
}

// halt stops an unfinished operation: its parked body unwinds and the handle
// reads done. A no-op on a finished one.
func (h *AsyncOp) halt() {
	if h.done {
		return
	}
	h.done, h.stopped = true, true
	h.co.stop()
	h.release()
}

// waitOwnFlag is WaitFlagGE on the image's own row from inside the running
// body h: an unmet condition is recorded and the body yields.
func (h *AsyncOp) waitOwnFlag(f *Flags, idx int, min int64) {
	for f.load(h.im.rank, idx) < min {
		h.f, h.idx, h.min, h.on = f, idx, min, nil
		h.park()
	}
}

// Progress resumes every in-flight split-phase operation of this image whose
// condition holds, once, in initiation order, and returns the number still
// in flight. It never blocks. Only the image itself resumes bodies: called
// from inside one, Progress does nothing.
func (im *Image) Progress() (pending int) {
	if len(im.pendingOps) == 0 || im.cur != nil {
		return len(im.pendingOps)
	}
	// Deferred, so a body that panics through leaves the list consistent.
	defer func() {
		im.pendingOps = slices.DeleteFunc(im.pendingOps, (*AsyncOp).Done)
		pending = len(im.pendingOps)
	}()
	for _, h := range im.pendingOps {
		if !h.done && h.ready() {
			h.resume()
		}
	}
	return
}

// Pending returns the number of in-flight split-phase operations.
func (im *Image) Pending() int { return len(im.pendingOps) }

// stopOps stops every unfinished split-phase operation, and every idle
// coroutine, as the image ends, so no coroutine outlives it. It returns how
// many operations were unfinished.
func (im *Image) stopOps() int {
	n := 0
	for _, h := range im.pendingOps {
		if !h.done {
			n++
			h.halt()
		}
	}
	for _, co := range im.idle {
		co.stop()
	}
	im.pendingOps, im.idle = nil, nil
	return n
}

// awaitAsyncActivity blocks the image until some in-flight operation's
// recorded condition is satisfied. The transport re-evaluates readiness
// whenever a flag delivery lands on this image's rows (every flag-mutating
// path wakes the owner rank), so the wait cannot miss an arrival regardless
// of which flags array it lands in.
func (im *Image) awaitAsyncActivity() {
	ready := func() bool {
		for _, h := range im.pendingOps {
			if h.done || h.ready() {
				return true
			}
		}
		return false
	}
	im.w.tr.WaitAsync(im, ready)
}

// progressQuantum is how often Image.Compute polls the progress engine while
// split-phase operations are in flight: roughly one network latency, small
// enough that a collective round is picked up promptly, large enough that
// polling stays a few percent of compute time.
const progressQuantum = 2 * Microsecond

// computeSleep advances local compute time, interleaving progress polls
// while split-phase operations are in flight. With nothing pending it is a
// single plain sleep (identical timing to the pre-async runtime).
func (im *Image) computeSleep(d Time) {
	for d > 0 && len(im.pendingOps) > 0 {
		q := progressQuantum
		if q > d {
			q = d
		}
		im.w.tr.Sleep(im, q)
		d -= q
		im.Progress()
	}
	if d > 0 {
		im.w.tr.Sleep(im, d)
	}
}

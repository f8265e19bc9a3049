// This file is the deliberate wall-clock side of pgas: the native backend
// runs on real goroutines against the real machine clock, and every timing
// observable it produces is wall time by design. The determinism story for
// this backend is bitwise *data* conformance against the sim backend, not
// timing replay, so the file-wide opt-out below is the sanctioned one the
// simdet analyzer documents.
//caflint:allow wallclock -- native backend: real goroutines on the real clock by design

package pgas

import (
	"sync"
	"sync/atomic"
	"time"

	"cafteams/internal/machine"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// This file is the native shared-memory transport: images run as real
// goroutines in this process's address space. A put or get is a memcpy the
// caller performs inline (Immediate); a flag notification is a sync/atomic
// mutation that wakes the owner rank's waiters only when some are registered;
// a wait whose flag already holds is one atomic load, and only a wait that
// has to park touches the rank's mutex and condition variable (nativeWait);
// Sleep/Compute burn real wall-clock time (the modeled durations, slept for
// real); MemWork and Quiet are no-ops because the work they account for in
// the simulator either happens for real inline or has already completed by
// the time the call returns.
//
// The memory model leans entirely on the flag discipline the algorithms
// already follow: a payload write is published by the atomic flag increment
// that follows it (PutThenNotify / NotifyAdd), and the consumer's atomic
// threshold check in WaitFlagGE acquires it before touching the payload.
// That is the same release/acquire chain a real one-sided runtime provides,
// and it is what makes the Go race detector meaningful over this backend.

// nativeWorld is the native backend's per-world state.
type nativeWorld struct {
	start time.Time
	cells []nativeCell // per rank
	wg    sync.WaitGroup
}

// nativeCell parks rank r's waiters. The protocol is a Dekker pairing over
// sequentially consistent atomics: a waiter registers in waiters and then
// re-checks its predicate; a waker mutates (a flag cell, the dead set, the
// failure epoch — all sync/atomic) and then reads waiters. Either the waker
// sees the registration and broadcasts, or its mutation precedes the
// registration and the re-check sees it; so a waker that reads zero may skip
// the lock and the broadcast. A registered waiter holds mu from its re-check
// to cond.Wait, and a waker takes (and releases) mu before broadcasting, so
// the broadcast cannot fall between the two.
type nativeCell struct {
	waiters atomic.Int32
	mu      sync.Mutex
	cond    sync.Cond // on mu
}

// NewNativeWorld creates a world whose images run as real goroutines on
// this machine, with wall-clock timing. model is still consulted for
// Compute/Sleep durations (slept for real); topo still defines the
// image-to-node map the hierarchy-aware algorithms key their phase
// structure on — on the native backend "nodes" are logical groups within
// one address space, the shape the paper's two-level algorithms exploit.
func NewNativeWorld(model *machine.Model, topo *topology.Topology, stats *trace.Stats) *World {
	w := newWorld(&nativeTransport{}, model, topo, stats)
	nw := &nativeWorld{cells: make([]nativeCell, topo.NumImages())}
	for i := range nw.cells {
		c := &nw.cells[i]
		c.cond.L = &c.mu
	}
	w.native = nw
	return w
}

// nativeTransport implements Transport on real goroutines.
type nativeTransport struct{}

func (*nativeTransport) Name() string { return "native" }

// Immediate reports true: native puts commit inside the call, so Put may
// read the caller's buffer directly with no staging copy.
func (*nativeTransport) Immediate() bool { return true }

func (*nativeTransport) Launch(w *World, body func(*Image)) {
	nw := w.native
	nw.start = time.Now()
	nw.wg.Add(len(w.images))
	for _, img := range w.images {
		img := img
		go func() {
			defer nw.wg.Done()
			body(img)
		}()
	}
	fc := w.faults
	if fc.plan != nil {
		// The native backend honors kill events (wall-clock ns after
		// launch); NIC and link faults have no native substrate and are
		// ignored — a documented backend difference.
		for _, ev := range fc.plan.Events {
			if ev.Kind != FaultKillImage && ev.Kind != FaultKillNode {
				continue
			}
			ev := ev
			fc.timers = append(fc.timers, time.AfterFunc(time.Duration(ev.At), func() {
				fc.applyKill(ev, w.killTime())
			}))
		}
	}
	if fc.cfg.Heartbeat > 0 {
		startNativeHeartbeats(w, nw)
	}
}

// startNativeHeartbeats starts one stamper goroutine per image plus a
// monitor; all of them exit when their image dies/finishes or when Drive
// tears the world down.
func startNativeHeartbeats(w *World, nw *nativeWorld) {
	fc := w.faults
	h := time.Duration(fc.cfg.Heartbeat)
	stamp := func(r int) { atomic.StoreInt64(&fc.hbStamp[r], time.Since(nw.start).Nanoseconds()) }
	for _, im := range w.images {
		r := im.rank
		stamp(r)
		go func() {
			for !fc.isDone(r) && !fc.isDead(r) {
				stamp(r)
				select {
				case <-fc.stopCh:
					return
				case <-time.After(h):
				}
			}
		}()
	}
	go func() {
		for fc.sweepStale(time.Since(nw.start).Nanoseconds()) {
			select {
			case <-fc.stopCh:
				return
			case <-time.After(h):
			}
		}
	}()
}

func (*nativeTransport) Drive(w *World) Time {
	nw := w.native
	nw.wg.Wait()
	w.faults.stop()
	return time.Since(nw.start).Nanoseconds()
}

func (*nativeTransport) Now(im *Image) Time {
	return time.Since(im.w.native.start).Nanoseconds()
}

func (*nativeTransport) Sleep(im *Image, d Time) {
	nativeCheck(im)
	if d > 0 {
		time.Sleep(time.Duration(d))
	}
	nativeCheck(im) // a kill during the sleep takes effect as it ends
}

// MemWork is a no-op: the packing/combining copies it accounts for in the
// simulator happen for real on this backend.
func (*nativeTransport) MemWork(im *Image, nbytes int) {}

// Quiet is a no-op (every one-sided operation committed before returning)
// except for the kill check: a poisoned image unwinds here like anywhere.
func (*nativeTransport) Quiet(im *Image) { nativeCheck(im) }

// nativeCheck unwinds a killed (poisoned) image at its next runtime call;
// this is the native analogue of the sim kernel interrupting a process at
// its next blocking point.
func nativeCheck(im *Image) {
	if im.w.faults.isDead(im.rank) {
		panic(imageKilled{rank: im.rank})
	}
}

// waitDesc names a wait for the error a failed one raises: the static why,
// or — for flag waits — the operands of the "flag name[o][i]>=min" text,
// which is built only then.
type waitDesc struct {
	why        string
	f          *Flags
	owner, idx int
	min        int64
}

func (d waitDesc) String() string {
	if d.f != nil {
		return d.f.describeGE(d.owner, d.idx, d.min)
	}
	return d.why
}

// How a parked wait ended.
const (
	waitOK = iota
	waitKilled
	waitFailed
	waitTimedOut
)

// nativeWait is the one parking primitive: it returns once pred holds, and
// unwinds on a kill of im itself or — when raise is set — on a failure
// announcement im has not acknowledged (epoch change) or on WaitTimeout
// expiry. Callers check the kill and try pred first, so a satisfied wait
// never gets here; like the loop this replaces, only a wait that did not find
// its predicate true inspects the epoch and the clock. The timeout timer is
// armed when the wait first parks and only broadcasts; the waiter itself
// decides it timed out, so spurious wakeups are harmless.
func nativeWait(im *Image, cellRank int, pred func() bool, d waitDesc, raise bool) {
	nw := im.w.native
	fc := im.w.faults
	c := &nw.cells[cellRank]
	// Interrupt on any announcement this image has not acknowledged (see
	// faultCtx.ackEpoch), not just ones newer than the wait.
	ep0 := fc.ackEpoch[im.rank]
	var deadline time.Time
	var timer *time.Timer
	end := waitOK
	c.waiters.Add(1)
	c.mu.Lock()
	for !pred() { // the re-check after registration, and after every wake-up
		if fc.isDead(im.rank) {
			end = waitKilled
			break
		}
		if raise {
			if fc.epochLoad() != ep0 {
				end = waitFailed
				break
			}
			if to := time.Duration(fc.cfg.WaitTimeout); to > 0 {
				if timer == nil {
					deadline = time.Now().Add(to)
					timer = time.AfterFunc(to, func() { nw.wake(cellRank) })
				} else if !time.Now().Before(deadline) {
					end = waitTimedOut
					break
				}
			}
		}
		c.cond.Wait()
	}
	c.mu.Unlock()
	c.waiters.Add(-1)
	if timer != nil {
		timer.Stop()
	}
	switch end {
	case waitKilled:
		panic(imageKilled{rank: im.rank})
	case waitFailed, waitTimedOut:
		panic(fc.failError(d.String(), end == waitTimedOut))
	}
}

// wake broadcasts to rank's waiters after a mutation they may be waiting
// for; with none registered it is one atomic load (see nativeCell).
func (nw *nativeWorld) wake(rank int) {
	c := &nw.cells[rank]
	if c.waiters.Load() == 0 {
		return
	}
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// nativeAwaitFailed is Image.AwaitFailedImages on this backend: a wait on the
// announced-failure count that does not raise.
func nativeAwaitFailed(im *Image, min int) {
	fc := im.w.faults
	pred := func() bool { return fc.failedCount() >= int64(min) }
	nativeCheck(im)
	if !pred() {
		nativeWait(im, im.rank, pred, waitDesc{why: "await failed images"}, false)
	}
}

// Put and Get are the kill check: the typed front end lands the payload
// itself right after the call and passes no commit (see Transport.Immediate).
func (*nativeTransport) Put(im *Image, target, nbytes int, via Via, _ func()) { nativeCheck(im) }

func (*nativeTransport) Get(im *Image, target, nbytes int, _ func()) { nativeCheck(im) }

// PutThenNotify is not how a put+flag reaches an Immediate transport: the
// front end calls Put, copies, then NotifyAdd — program order is delivery order.
func (*nativeTransport) PutThenNotify(*Image, int, int, Via, func(), *Flags, int, int64) {
	panic("pgas: native puts land in the typed front end (Transport.Immediate)")
}

func (*nativeTransport) NotifyAdd(im *Image, f *Flags, target, idx int, delta int64, via Via) {
	nativeCheck(im)
	f.add(target, idx, delta)
	im.w.native.wake(target)
}

func (*nativeTransport) NotifySet(im *Image, f *Flags, target, idx int, val int64, via Via) {
	nativeCheck(im)
	f.storeMax(target, idx, val)
	im.w.native.wake(target)
}

func (*nativeTransport) FetchOp(im *Image, f *Flags, target, idx int, op AtomicOp, operand int64) int64 {
	nativeCheck(im)
	old := f.fetchOp(target, idx, op, operand)
	im.w.native.wake(target)
	return old
}

func (*nativeTransport) CompareAndSwap(im *Image, f *Flags, target, idx int, expected, desired int64) int64 {
	nativeCheck(im)
	old := f.compareAndSwap(target, idx, expected, desired)
	if old == expected {
		im.w.native.wake(target)
	}
	return old
}

func (*nativeTransport) WaitFlagGE(im *Image, f *Flags, owner, idx int, min int64) {
	nativeCheck(im)
	cell := f.cell(owner, idx)
	if atomic.LoadInt64(cell) >= min {
		return
	}
	nativeWait(im, owner, func() bool { return atomic.LoadInt64(cell) >= min },
		waitDesc{f: f, owner: owner, idx: idx, min: min}, true)
}

func (*nativeTransport) WaitAsync(im *Image, ready func() bool) {
	nativeCheck(im)
	if !ready() {
		nativeWait(im, im.rank, ready, waitDesc{why: "async progress"}, true)
	}
}

func (*nativeTransport) WakeRank(w *World, rank int) {
	w.native.wake(rank)
}

// Kill poisons image rank: its current wait (woken by the broadcast below)
// or its next transport call unwinds the goroutine with the kill sentinel.
// An image busy in a long Compute dies at the sleep's end — the native
// backend cannot interrupt a real time.Sleep, a documented difference from
// the sim backend's immediate unwind.
func (*nativeTransport) Kill(w *World, rank int) {
	w.faults.markDead(rank)
	w.tr.WakeAll(w)
}

func (*nativeTransport) WakeAll(w *World) {
	nw := w.native
	for r := range nw.cells {
		nw.wake(r)
	}
}

// compile-time interface checks for both transports.
var (
	_ Transport = (*simTransport)(nil)
	_ Transport = (*nativeTransport)(nil)
)

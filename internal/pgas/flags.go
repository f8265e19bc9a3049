package pgas

import (
	"fmt"
	"sync/atomic"

	"cafteams/internal/trace"
)

// Flags is a symmetric array of int64 synchronization flags: every image
// owns a row of slots. Remote notifications (set or add) are one-sided puts
// of 8 bytes; local waits block until a slot reaches a threshold.
//
// Flags are used as monotonically increasing counters, which gives the
// "sync_flags carry" the paper's dissemination barrier exploits: an episode
// never resets flags, it just raises the threshold, so one wait suffices and
// late notifications from a previous episode can never be confused with the
// current one.
//
// Flag cells are mutated exclusively through the sync/atomic helpers below,
// on both backends. In the single-scheduler simulator the atomics are
// value-identical to plain accesses; on the native backend they are what
// makes a flag arrival a happens-before edge from the sender's payload
// writes to any waiter that observes it (payload memcpy → atomic flag add →
// waiter's atomic load → payload read), which is also what keeps the race
// detector quiet about the payload copies themselves.
//
// Like coarray slabs, rows materialise on first touch (see Coarray): an image
// no operation ever names — a non-leader during a leaders-only subgroup
// algorithm — costs nothing.
type Flags struct {
	w     *World
	name  string
	slots int
	rows  []atomic.Pointer[[]int64]
}

// NewFlags allocates a flags array with slots slots per image. Like a
// coarray allocation this is logically collective; the first image to reach
// it creates the shared object (World.lookupOrCreate guarantees exactly one
// creation per key even when native goroutines race to it). Flags are
// always int64, so unlike coarrays the name alone keys the allocation (no
// element-type component).
func NewFlags(w *World, name string, slots int) *Flags {
	if slots <= 0 {
		panic(fmt.Sprintf("pgas: flags %q with %d slots", name, slots))
	}
	return w.lookupOrCreate("flags:"+name, func() interface{} {
		return &Flags{w: w, name: name, slots: slots,
			rows: make([]atomic.Pointer[[]int64], w.NumImages())}
	}).(*Flags)
}

// Name returns the allocation name.
func (f *Flags) Name() string { return f.name }

// Slots returns the per-image slot count.
func (f *Flags) Slots() int { return f.slots }

// cell returns the address of owner's slot idx, materialising owner's row on
// first touch. The common case is one atomic load.
func (f *Flags) cell(owner, idx int) *int64 {
	if p := f.rows[owner].Load(); p != nil {
		return &(*p)[idx]
	}
	row := make([]int64, f.slots)
	if f.rows[owner].CompareAndSwap(nil, &row) {
		f.w.stats.Materialize(trace.MemFlags, 8*f.slots)
		return &row[idx]
	}
	return &(*f.rows[owner].Load())[idx] // another image's first touch won
}

// describeGE is the text of a wait for owner's slot idx to reach min, as
// deadlock reports and FailedImageError.Op carry it on both backends. Waits
// build it only when they fail.
func (f *Flags) describeGE(owner, idx int, min int64) string {
	return fmt.Sprintf("flag %s[%d][%d]>=%d", f.name, owner, idx, min)
}

// Peek returns the current value of a slot without synchronization or cost;
// for tests and local fast-path checks.
func (f *Flags) Peek(owner, idx int) int64 { return f.load(owner, idx) }

// load/store/add/storeMax/fetchOp/compareAndSwap are the only accessors of
// flag cells; see the type comment for why they are atomic on both backends.

func (f *Flags) load(owner, idx int) int64 {
	return atomic.LoadInt64(f.cell(owner, idx))
}

func (f *Flags) store(owner, idx int, val int64) {
	atomic.StoreInt64(f.cell(owner, idx), val)
}

func (f *Flags) add(owner, idx int, delta int64) {
	atomic.AddInt64(f.cell(owner, idx), delta)
}

// storeMax raises the cell to val if it is below (monotonic max).
func (f *Flags) storeMax(owner, idx int, val int64) {
	cell := f.cell(owner, idx)
	for {
		old := atomic.LoadInt64(cell)
		if old >= val || atomic.CompareAndSwapInt64(cell, old, val) {
			return
		}
	}
}

// fetchOp applies op atomically and returns the previous value.
func (f *Flags) fetchOp(owner, idx int, op AtomicOp, operand int64) int64 {
	cell := f.cell(owner, idx)
	for {
		old := atomic.LoadInt64(cell)
		if atomic.CompareAndSwapInt64(cell, old, op.apply(old, operand)) {
			return old
		}
	}
}

// compareAndSwap returns the previous value; the swap happened iff it
// equals expected.
func (f *Flags) compareAndSwap(owner, idx int, expected, desired int64) int64 {
	cell := f.cell(owner, idx)
	for {
		old := atomic.LoadInt64(cell)
		if old != expected {
			return old
		}
		if atomic.CompareAndSwapInt64(cell, expected, desired) {
			return expected
		}
	}
}

// NotifyAdd atomically adds delta to flag idx on image target, as a
// non-blocking one-sided operation over the given path. The caller is
// charged injection overhead only; delivery happens asynchronously.
func (im *Image) NotifyAdd(f *Flags, target, idx int, delta int64, via Via) {
	im.w.stats.Message(trace.OpNotify, im.SameNode(target) && target != im.rank, target == im.rank, 8)
	im.w.tr.NotifyAdd(im, f, target, idx, delta, im.resolveVia(target, via))
}

// NotifySet raises flag idx on image target to val if it is below val
// (one-sided, non-blocking, monotonic max — NOT a plain store). The max
// semantics are load-bearing for episode stamps: stamps from consecutive
// episodes may be delivered out of order, and a late stamp from an earlier
// episode must never roll the flag back below the current one, or a waiter
// keyed on "flag >= episode" would re-block or miss its wake-up. Use
// SetLocal for an unconditional local store.
func (im *Image) NotifySet(f *Flags, target, idx int, val int64, via Via) {
	im.w.stats.Message(trace.OpNotify, im.SameNode(target) && target != im.rank, target == im.rank, 8)
	im.w.tr.NotifySet(im, f, target, idx, val, im.resolveVia(target, via))
}

// SetLocal sets this image's own flag without modeling cost (a plain local
// store).
func (im *Image) SetLocal(f *Flags, idx int, val int64) {
	f.store(im.rank, idx, val)
	im.w.tr.WakeRank(im.w, im.rank)
}

// WaitFlagGE blocks this image until flag idx on image owner is >= min.
// Waiting on another image's flags is only meaningful on the same node
// (shared memory); the runtime enforces that, matching what real hardware
// permits. On the image's own row, inside a split-phase body, an unmet wait
// yields the body to the image instead of blocking it (see progress.go).
func (im *Image) WaitFlagGE(f *Flags, owner, idx int, min int64) {
	if owner != im.rank {
		if !im.SameNode(owner) {
			panic(fmt.Sprintf("pgas: image %d waits on flags of remote image %d", im.rank, owner))
		}
	} else if h := im.cur; h != nil {
		h.waitOwnFlag(f, idx, min)
		return
	}
	im.w.tr.WaitFlagGE(im, f, owner, idx, min)
}

// FetchAddFlag performs a blocking remote atomic fetch-and-add on a flag
// slot, returning the previous value. Models the CAF atomic_add intrinsic
// on an integer coarray element; see FetchOpFlag for the full atomic
// family.
func (im *Image) FetchAddFlag(f *Flags, target, idx int, delta int64) int64 {
	return im.FetchOpFlag(f, target, idx, AtomicAdd, delta)
}

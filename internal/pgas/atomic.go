package pgas

import (
	"fmt"

	"cafteams/internal/trace"
)

// This file implements the CAF atomic intrinsics the paper's runtime adapts
// to teams (§III: atomic_add, atomic_and, ... adapted "to work when executed
// by non-initial teams"): remote read-modify-write operations on integer
// flag cells, plus events (event post / event wait), which are counting
// semaphores built on the same machinery.

// AtomicOp names an integer read-modify-write operation.
type AtomicOp int

// Atomic operations (the CAF atomic_* intrinsics).
const (
	AtomicAdd AtomicOp = iota
	AtomicAnd
	AtomicOr
	AtomicXor
)

func (op AtomicOp) String() string {
	switch op {
	case AtomicAdd:
		return "add"
	case AtomicAnd:
		return "and"
	case AtomicOr:
		return "or"
	case AtomicXor:
		return "xor"
	default:
		return fmt.Sprintf("atomic(%d)", int(op))
	}
}

func (op AtomicOp) apply(old, operand int64) int64 {
	switch op {
	case AtomicAdd:
		return old + operand
	case AtomicAnd:
		return old & operand
	case AtomicOr:
		return old | operand
	case AtomicXor:
		return old ^ operand
	default:
		panic("pgas: unknown atomic op " + op.String())
	}
}

// FetchOpFlag performs a blocking remote atomic fetch-and-op on a flag slot
// and returns the previous value — the CAF atomic_fetch_add/and/or/xor
// family. Local and intra-node targets use the node's memory system; remote
// targets pay a network round trip.
func (im *Image) FetchOpFlag(f *Flags, target, idx int, op AtomicOp, operand int64) int64 {
	im.w.stats.Message(trace.OpAtomic, im.SameNode(target) && target != im.rank, target == im.rank, 8)
	return im.w.tr.FetchOp(im, f, target, idx, op, operand)
}

// CompareAndSwapFlag performs a blocking remote compare-and-swap on a flag
// slot, returning the previous value (the CAF atomic_cas intrinsic). The
// swap happened iff the return value equals expected.
func (im *Image) CompareAndSwapFlag(f *Flags, target, idx int, expected, desired int64) int64 {
	im.w.stats.Message(trace.OpAtomic, im.SameNode(target) && target != im.rank, target == im.rank, 16)
	return im.w.tr.CompareAndSwap(im, f, target, idx, expected, desired)
}

// Events is a symmetric array of counting events (Fortran 2018 event_type):
// EventPost is a one-sided increment, EventWait blocks until the local
// count reaches a threshold and then consumes it.
type Events struct {
	f *Flags
	// consumed[img][idx] counts how many posts image img has already
	// waited for on event idx. Each image touches only its own row, so no
	// synchronization is needed on either backend.
	consumed [][]int64
}

// NewEvents allocates a symmetric event array with n events per image.
func NewEvents(w *World, name string, n int) *Events {
	return w.reg.LookupOrCreate("events:"+name, func() any {
		ev := &Events{f: NewFlags(w, "events:"+name, n)}
		ev.consumed = make([][]int64, w.NumImages())
		for i := range ev.consumed {
			ev.consumed[i] = make([]int64, n)
		}
		return ev
	}).(*Events)
}

// Post increments event idx on image target (CAF "event post"): one-sided,
// non-blocking.
func (im *Image) Post(ev *Events, target, idx int, via Via) {
	im.NotifyAdd(ev.f, target, idx, 1, via)
}

// WaitEvent blocks until at least count un-consumed posts have arrived at
// this image's event idx, then consumes them (CAF "event wait ...
// until_count=").
func (im *Image) WaitEvent(ev *Events, idx int, count int64) {
	want := ev.consumed[im.rank][idx] + count
	im.WaitFlagGE(ev.f, im.rank, idx, want)
	ev.consumed[im.rank][idx] = want
}

// QueryEvent returns the number of posted-but-unconsumed events at this
// image's event idx without blocking (CAF event_query).
func (im *Image) QueryEvent(ev *Events, idx int) int64 {
	return ev.f.Peek(im.rank, idx) - ev.consumed[im.rank][idx]
}

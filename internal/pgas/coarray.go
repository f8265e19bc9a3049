package pgas

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"cafteams/internal/trace"
)

// Coarray is a symmetric shared data entity: every image in scope owns a
// local slab of n elements, remotely addressable by (image, offset) — the
// CAF "A(i)[k]" access pattern. Remote access goes through Put/Get below;
// local access through Local is a plain slice.
//
// Slabs materialise on first touch: a coarray declares n elements on every
// owning image, but an image's slab is only allocated (zeroed) by the first
// Put, Get or Local that names it. Symmetric scratch therefore costs what
// the images' roles actually touch, not what the most demanding role could
// touch. Bounds checks use the declared length, and a fresh slab reads as
// zero, so first touch is unobservable apart from World.Stats.
//
// The element size (for transfer-cost accounting) is inferred for the
// common numeric types and defaults to 8 bytes otherwise.
type Coarray[T any] struct {
	w        *World
	name     string
	n        int
	elemSize int
	// slabs[r] is image r's slab, nil until first touch. On the native
	// backend many images may first-touch one target at once; the CAS in
	// materialize makes exactly one slab win.
	slabs []atomic.Pointer[[]T]
	// members restricts which images own a slab (team-scoped coarrays
	// allocated inside a change-team block): one bit per image. nil means
	// all images.
	members []uint64

	// stageFree pools put-staging records (see putStage). Only the sim
	// transport stages (Immediate() == false), and its execution is
	// serialized by the single-scheduler kernel, so a plain LIFO slice is
	// safe and deterministic.
	stageFree []*putStage[T]
}

// putStage is one staged one-sided write: the injection-buffer copy plus a
// prebound commit closure, pooled per coarray so the steady-state put path
// allocates nothing once buffers have grown.
type putStage[T any] struct {
	c   *Coarray[T]
	dst []T
	off int
	buf []T
	run func() // prebound (*putStage).commit
}

func (s *putStage[T]) commit() {
	copy(s.dst[s.off:], s.buf)
	s.dst = nil
	s.c.stageFree = append(s.c.stageFree, s)
}

// stage takes a pooled staging record and fills it with a copy of src
// destined for dst[off:].
func (c *Coarray[T]) stage(dst []T, off int, src []T) *putStage[T] {
	var s *putStage[T]
	if n := len(c.stageFree); n > 0 {
		s = c.stageFree[n-1]
		c.stageFree = c.stageFree[:n-1]
	} else {
		s = &putStage[T]{c: c}
		s.run = s.commit
	}
	s.dst = dst
	s.off = off
	s.buf = append(s.buf[:0], src...)
	return s
}

// sizeOf infers the byte size of T for cost accounting.
func sizeOf[T any]() int {
	var z T
	switch any(z).(type) {
	case int8, uint8, bool:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	default:
		return 8
	}
}

// ElemSize returns the byte size charged per element of T when transferring
// coarrays of T (the same inference Put/Get cost accounting uses).
func ElemSize[T any]() int { return sizeOf[T]() }

// TypeName returns a stable tag naming T, for keying per-type allocations
// (two coarrays that share a name but differ in element type must not alias).
func TypeName[T any]() string {
	var z T
	// Every collective call keys its state by this tag: name the usual
	// element types without formatting (and allocating) each time.
	switch any(z).(type) {
	case float64:
		return "float64"
	case float32:
		return "float32"
	case int:
		return "int"
	case int64:
		return "int64"
	case int32:
		return "int32"
	}
	return fmt.Sprintf("%T", z)
}

// NewCoarray collectively allocates a coarray of n elements per image across
// the whole world.
func NewCoarray[T any](w *World, name string, n int) *Coarray[T] {
	return newCoarrayOn[T](w, name, n, nil)
}

// NewTeamCoarray collectively allocates a coarray whose slabs exist only on
// the given member images (global ranks) — the paper's "declare and allocate
// coarrays within a change team block ... allocated only in the images
// operating on it". members is only read while the coarray is created, so
// callers may pass a shared slice.
func NewTeamCoarray[T any](w *World, name string, n int, members []int) *Coarray[T] {
	return newCoarrayOn[T](w, name, n, members)
}

func newCoarrayOn[T any](w *World, name string, n int, members []int) *Coarray[T] {
	if n <= 0 {
		panic(fmt.Sprintf("pgas: coarray %q with %d elements", name, n))
	}
	// The registry key includes the element type: two coarrays that share a
	// name but differ in T are distinct allocations, not a type-assertion
	// crash on second use.
	return w.lookupOrCreate("coarray:"+TypeName[T]()+":"+name, func() interface{} {
		c := &Coarray[T]{w: w, name: name, n: n, elemSize: sizeOf[T]()}
		c.slabs = make([]atomic.Pointer[[]T], w.NumImages())
		if members != nil {
			set := make([]uint64, (w.NumImages()+63)/64)
			owners := 0
			for _, m := range members {
				if set[m/64]>>(m%64)&1 == 0 {
					set[m/64] |= 1 << (m % 64)
					owners++
				}
			}
			if owners < w.NumImages() {
				c.members = set
			}
		}
		return c
	}).(*Coarray[T])
}

// Name returns the allocation name.
func (c *Coarray[T]) Name() string { return c.name }

// Len returns the per-image element count.
func (c *Coarray[T]) Len() int { return c.n }

// OwnedBy reports whether image rank owns a slab of this coarray.
func (c *Coarray[T]) OwnedBy(rank int) bool {
	return c.members == nil || c.members[rank/64]>>(rank%64)&1 == 1
}

// slab returns image rank's slab, materialising it on first touch. The
// common case is one atomic load.
func (c *Coarray[T]) slab(rank int) []T {
	if p := c.slabs[rank].Load(); p != nil {
		return *p
	}
	return c.materialize(rank)
}

func (c *Coarray[T]) materialize(rank int) []T {
	if !c.OwnedBy(rank) {
		panic(fmt.Sprintf("pgas: image %d does not own coarray %q (team-scoped allocation)", rank, c.name))
	}
	s := make([]T, c.n)
	if !c.slabs[rank].CompareAndSwap(nil, &s) {
		return *c.slabs[rank].Load() // another image's first touch won
	}
	var z T
	c.w.stats.Materialize(trace.MemCoarray, c.n*int(unsafe.Sizeof(z)))
	return s
}

// outside refuses a transfer that leaves the slab, in a frame of its own: the
// formatting costs the put chain no stack (TestStackBudget).
//
//go:noinline
func (c *Coarray[T]) outside(op string, off, n int) {
	panic(fmt.Sprintf("pgas: %s %q [%d:%d) outside [0:%d)", op, c.name, off, off+n, c.n))
}

// Local returns this image's own slab for direct computation. No transfer
// cost is charged; local compute is charged separately via Image.Compute.
func Local[T any](c *Coarray[T], im *Image) []T { return c.slab(im.rank) }

// Put copies src into target's slab at offset off — the CAF assignment
// "A(off:off+len)[target] = src". It is one-sided and non-blocking: the
// caller is charged injection overhead and may proceed; delivery lands
// later (use Image.Quiet or a flag notification for completion, issued
// after the Put so delivery order per image pair is preserved).
//
// A transport whose puts complete inside the call (Transport.Immediate) gets
// no commit: after its admission check the payload lands right here, read
// straight from src. An asynchronous transport gets a staged copy, so the
// caller may reuse src immediately after Put returns — the usual
// injection-buffer semantics. Staged records come from the coarray's pool; a
// record whose commit is never run (a dropped message under fault injection)
// simply falls to the garbage collector.
func Put[T any](im *Image, c *Coarray[T], target, off int, src []T, via Via) {
	if off < 0 || off+len(src) > c.n {
		c.outside("put", off, len(src))
	}
	dst := c.slab(target)
	nbytes := len(src) * c.elemSize
	im.w.stats.Message(trace.OpPut, im.SameNode(target) && target != im.rank, target == im.rank, nbytes)
	tr, via := im.w.tr, im.resolveVia(target, via)
	if tr.Immediate() {
		tr.Put(im, target, nbytes, via, nil)
		copy(dst[off:], src)
		return
	}
	tr.Put(im, target, nbytes, via, c.stage(dst, off, src).run)
}

// Get copies length len(dst) from target's slab at offset off into dst — the
// CAF read "dst = A(off:...)[target]". It blocks the caller until the data
// has arrived (CAF gets are blocking).
func Get[T any](im *Image, c *Coarray[T], target, off int, dst []T) {
	if off < 0 || off+len(dst) > c.n {
		c.outside("get", off, len(dst))
	}
	src := c.slab(target)
	nbytes := len(dst) * c.elemSize
	im.w.stats.Message(trace.OpGet, im.SameNode(target) && target != im.rank, target == im.rank, nbytes)
	if tr := im.w.tr; tr.Immediate() {
		tr.Get(im, target, nbytes, nil)
		copy(dst, src[off:])
		return
	}
	im.w.tr.Get(im, target, nbytes, func() { copy(dst, src[off:]) })
}

// PutThenNotify performs a Put followed by a flag notification to the same
// target, guaranteeing the flag lands after the data (ordered delivery on
// one conduit path per image pair — the standard put+flag idiom the
// hierarchy-aware collectives use). On an Immediate transport that is
// literally Put, the inline copy, then NotifyAdd.
func PutThenNotify[T any](im *Image, c *Coarray[T], target, off int, src []T, f *Flags, idx int, delta int64, via Via) {
	if off < 0 || off+len(src) > c.n {
		c.outside("put", off, len(src))
	}
	dst := c.slab(target)
	nbytes := len(src) * c.elemSize
	shm := im.SameNode(target) && target != im.rank
	im.w.stats.Message(trace.OpPut, shm, target == im.rank, nbytes)
	im.w.stats.Message(trace.OpNotify, shm, target == im.rank, 8)
	tr, via := im.w.tr, im.resolveVia(target, via)
	if tr.Immediate() {
		tr.Put(im, target, nbytes, via, nil)
		copy(dst[off:], src)
		tr.NotifyAdd(im, f, target, idx, delta, via)
		return
	}
	tr.PutThenNotify(im, target, nbytes, via, c.stage(dst, off, src).run, f, idx, delta)
}

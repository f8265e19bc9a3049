package pgas

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"cafteams/internal/trace"
)

// Coarray is a symmetric shared data entity: every image in scope owns a
// local slab of n elements, remotely addressable by (image, offset) — the
// CAF "A(i)[k]" access pattern. Remote access goes through Put/Get below;
// local access through Local is a plain, unchecked slice. A read of what a
// put landed may go through Landed instead, which on a write-at-issue coarray
// (NewGuardedCoarray) refuses data that has not arrived yet.
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
	// inflight is the read-before-arrival guard of a write-at-issue coarray
	// (NewGuardedCoarray), nil on any other.
	inflight *inflight
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
// the whole world, registered in the world by name and element type: two
// coarrays that share a name but differ in T are distinct allocations, not a
// type-assertion crash on second use.
func NewCoarray[T any](w *World, name string, n int) *Coarray[T] {
	return w.reg.LookupOrCreate("coarray:"+TypeName[T]()+":"+name, func() any {
		return NewTeamCoarray[T](w, name, n, nil)
	}).(*Coarray[T])
}

// NewTeamCoarray makes a coarray whose slabs exist only on the given member
// images (distinct global ranks; nil means every image) — the paper's
// "declare and allocate coarrays within a change team block ... allocated
// only in the images operating on it". It registers nothing: the caller
// creates it once in its team's registry, where every member attaches to it
// and which it leaves with the team. members is only read here, so callers
// may pass a shared slice.
func NewTeamCoarray[T any](w *World, name string, n int, members []int) *Coarray[T] {
	if n <= 0 {
		panic(fmt.Sprintf("pgas: coarray %q with %d elements", name, n))
	}
	c := &Coarray[T]{w: w, name: name, n: n, elemSize: sizeOf[T]()}
	c.slabs = make([]atomic.Pointer[[]T], w.NumImages())
	if members != nil && len(members) < w.NumImages() {
		c.members = make([]uint64, (w.NumImages()+63)/64)
		for _, m := range members {
			c.members[m/64] |= 1 << (m % 64)
		}
	}
	return c
}

// NewGuardedCoarray is NewTeamCoarray for a collective's landing area, which
// the sim writes once: PutThenNotify copies the payload into the target's slab
// at issue, as an RDMA conduit would, instead of staging it until delivery.
// Its guard stands in for the late copy: a Landed read of a range that a put
// in flight lands on panics (a read before arrival), and so does a put to it
// (an overwrite before arrival). Put and Local are unguarded.
func NewGuardedCoarray[T any](w *World, name string, n int, members []int) *Coarray[T] {
	c := NewTeamCoarray[T](w, name, n, members)
	c.inflight = &inflight{images: w.NumImages()}
	return c
}

// Name returns the allocation name.
func (c *Coarray[T]) Name() string { return c.name }

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

// Landed returns im's own elements [off, off+n) of c, to read what puts
// landed there. On a write-at-issue coarray (NewGuardedCoarray) it panics if a
// put in flight lands on the range after im's clock: a read before arrival,
// which reading the stale bytes would not show.
func Landed[T any](c *Coarray[T], im *Image, off, n int) []T {
	if off < 0 || n < 0 || off+n > c.n {
		c.outside("read", off, n)
	}
	s := c.slab(im.rank)
	if g := c.inflight; g != nil && g.holds(im.rank) {
		g.check(c.name, im.rank, off, n, im.w.tr.Now())
	}
	return s[off : off+n : off+n]
}

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
	im.w.tr.Get(im, target, nbytes)
	copy(dst, src[off:])
}

// PutThenNotify performs a Put followed by a flag notification to the same
// target, guaranteeing the flag lands after the data (ordered delivery on
// one conduit path per image pair — the standard put+flag idiom the
// hierarchy-aware collectives use). On an Immediate transport that is
// literally Put, the inline copy, then Notify. On the sim, a write-at-issue
// coarray (NewGuardedCoarray) gets the payload copied into the target's slab
// here, once, and its guard records the range until the data leg lands; any
// other is staged until delivery, like Put.
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
		tr.Notify(im, f, target, idx, delta, flagAdd, via)
		return
	}
	if c.inflight == nil {
		tr.PutThenNotify(im, target, nbytes, via, c.stage(dst, off, src).run, f, idx, delta)
		return
	}
	c.inflight.record(c.name, target, off, len(src), tr.Now())
	copy(dst[off:], src)
	c.inflight.land(target, off, len(src), tr.PutThenNotify(im, target, nbytes, via, nil, f, idx, delta))
}

// inflight is a write-at-issue coarray's guard, the oracle that staging a
// payload until delivery used to be: per target image, the puts whose payload
// the sim has written into the target's slab, each as the elements [lo, hi)
// and the time its data leg lands. Walking a target's list drops what has
// landed, so it holds no more than the puts in flight to it and reuses its
// backing array. Only the sim records (an Immediate transport lands a put
// inside the call), in scheduler context, so no lock is needed.
type inflight struct {
	images  int
	flights [][]flight // per target rank; nil until the first put
}

type flight struct {
	lo, hi int
	at     Time
}

// overlaps reports whether f shares an element with [off, off+n).
func (f flight) overlaps(off, n int) bool { return f.lo < off+n && off < f.hi && n > 0 }

const (
	issued Time = math.MaxInt64 - 1 // recorded; the transport has not routed it yet
	never  Time = math.MaxInt64     // lost on the wire
)

// record enters a put of target's [off, off+n) before its payload is copied,
// panicking on an overwrite before arrival. A lost put's record is superseded
// by a later put to its range, so retries do not panic. An empty put lands
// nothing and is not entered.
//
//go:noinline
func (g *inflight) record(name string, target, off, n int, now Time) {
	if g.flights == nil {
		g.flights = make([][]flight, g.images)
	}
	if n == 0 {
		return
	}
	live := g.flights[target][:0]
	for _, f := range g.flights[target] {
		switch {
		case f.at <= now: // landed
		case !f.overlaps(off, n):
			live = append(live, f)
		case f.at != never:
			early(name, "overwrite", target, off, n, f.at, now)
		}
	}
	g.flights[target] = append(live, flight{off, off + n, issued})
}

// land stamps the record entered for target's [off, off+n) with the time its
// data leg lands (never, if it was lost): the one issued record of that range,
// as record refuses overlaps.
//
//go:noinline
func (g *inflight) land(target, off, n int, at Time) {
	for i, f := range g.flights[target] {
		if f.lo == off && f.hi == off+n && f.at == issued {
			g.flights[target][i].at = at
			return
		}
	}
}

// holds reports whether target's list has records: a read needs no clock
// otherwise, and on native it never has.
func (g *inflight) holds(target int) bool { return g.flights != nil && len(g.flights[target]) > 0 }

// check panics on a read before arrival of target's [off, off+n), and drops
// target's landed records.
func (g *inflight) check(name string, target, off, n int, now Time) {
	live := g.flights[target][:0]
	for _, f := range g.flights[target] {
		if f.at > now {
			if f.overlaps(off, n) {
				early(name, "read", target, off, n, f.at, now)
			}
			live = append(live, f)
		}
	}
	g.flights[target] = live
}

func early(name, op string, target, off, n int, at, now Time) {
	when := fmt.Sprintf("lands at %d ns", at)
	if at == issued {
		when = "is being issued"
	} else if at == never {
		when = "never lands (lost on the wire)"
	}
	panic(fmt.Sprintf("pgas: %s before arrival: %q [%d:%d) on image %d at %d ns, where a put %s", op, name, off, off+n, target, now, when))
}

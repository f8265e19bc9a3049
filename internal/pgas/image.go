package pgas

import (
	"fmt"

	"cafteams/internal/trace"
)

// Image is one SPMD execution unit (a "process" in MPI terms, an "image" in
// Coarray Fortran terms). Image methods that move data or synchronize must
// only be called from the image's own execution context (its simulated
// process on the sim backend, its goroutine on the native backend).
type Image struct {
	w    *World
	rank int
	node int

	// syncSent[p] counts sync-images notifications this image has sent to
	// image p. The matching receive counters live in the world-level
	// "syncimages" flags array; both only grow, giving the "carry"
	// property (no flag resets).
	syncSent []int64

	// pendingOps are the in-flight split-phase operations driven by this
	// image's progress engine (see progress.go); cur is the one whose body
	// is executing right now, nil on the blocking path; idle are coroutines
	// whose body has returned, kept for the next operations.
	pendingOps []*AsyncOp
	cur        *AsyncOp
	idle       []*coroutine
}

// Rank returns the image's 0-based global rank. (Coarray Fortran numbers
// images from 1; the public caf package applies that convention, the
// internal runtime is 0-based throughout.)
func (im *Image) Rank() int { return im.rank }

// Node returns the node hosting this image.
func (im *Image) Node() int { return im.node }

// World returns the world this image belongs to.
func (im *Image) World() *World { return im.w }

// Now returns the current time (simulated, or wall-clock since world start).
func (im *Image) Now() Time { return im.w.tr.Now(im) }

// SameNode reports whether the target image shares this image's node.
func (im *Image) SameNode(target int) bool { return im.w.topo.SameNode(im.rank, target) }

// Compute charges flops worth of dense compute time to this image. While
// split-phase operations are in flight the compute time is interleaved with
// progress-engine polls, so collectives advance behind the computation —
// the overlap the non-blocking API exists for. With nothing in flight it is
// a single sleep.
func (im *Image) Compute(flops float64) {
	im.w.stats.Count(trace.OpCompute)
	im.computeSleep(im.w.model.ComputeTime(flops))
}

// MemWork charges local memory traffic (packing, reduction combining) of n
// bytes to this image. On the native backend this is a no-op: the copies it
// accounts for in the simulator happen for real there.
func (im *Image) MemWork(n int) {
	im.w.tr.MemWork(im, n)
}

// Sleep advances this image by d nanoseconds.
func (im *Image) Sleep(d Time) { im.w.tr.Sleep(im, d) }

// resolveVia turns ViaAuto into the concrete path for target and enforces
// that the shared-memory path never crosses nodes, matching what real
// hardware permits. Transports receive only resolved paths.
func (im *Image) resolveVia(target int, via Via) Via {
	sameNode := im.SameNode(target)
	if via == ViaAuto {
		if sameNode {
			return ViaShm
		}
		return ViaConduit
	}
	if via == ViaShm && !sameNode {
		panic(fmt.Sprintf("pgas: image %d used shared-memory path to image %d on another node", im.rank, target))
	}
	return via
}

// Quiet blocks until every one-sided operation issued by this image has been
// delivered (the CAF "sync memory" / GASNet quiet semantics).
func (im *Image) Quiet() {
	im.w.tr.Quiet(im)
}

// syncFlags returns the world-level sync-images counters: slot p of image
// q's row counts notifications q has received from p.
func (im *Image) syncFlags() *Flags {
	return NewFlags(im.w, "syncimages", im.w.NumImages())
}

// SyncImages performs CAF "sync images (list)": pairwise synchronization
// with each listed image (global ranks). Every pair exchanges one
// notification in each direction; an image proceeds once it has received as
// many notifications from each partner as it has sent. Uses the
// hierarchy-aware point-to-point path.
func (im *Image) SyncImages(partners []int) {
	fl := im.syncFlags()
	if im.syncSent == nil {
		im.syncSent = make([]int64, im.w.NumImages())
	}
	for _, p := range partners {
		if p == im.rank {
			continue
		}
		im.syncSent[p]++
		im.NotifyAdd(fl, p, im.rank, 1, ViaAuto)
	}
	for _, p := range partners {
		if p == im.rank {
			continue
		}
		im.WaitFlagGE(fl, im.rank, p, im.syncSent[p])
	}
	im.w.stats.Count(trace.OpWait)
}

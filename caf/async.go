// Non-blocking (split-phase) collectives: initiate any blocking collective or
// synchronization call with Async, overlap local work, complete with
// Handle.Wait. A split-phase collective is the same algorithm the blocking
// call would run — whatever the hierarchy level or Tuning selects — executed
// on a coroutine whose flag waits yield to the image instead of blocking it.
// The returned Handle progresses whenever the image gives the runtime a
// chance — inside Handle.Wait, during Image.Compute (compute time is
// interleaved with progress polls), or on an explicit Image.Progress — so
// collective rounds advance behind computation instead of serializing after
// it.
//
// Rules, matching real split-phase collective APIs:
//
//   - the buffers handed to the call inside Async must not be read or written
//     until Wait returns (Test returning true is equivalent to Wait);
//   - Async calls are collective: every image of the team must initiate the
//     matching call, in the same order relative to its other collectives;
//   - every handle must be completed with Wait (or Test to completion) before
//     the image's body returns; a body that returns with one in flight fails
//     the run. A Wait that reports a failed image (WithStat) completes the
//     handle too: the operation is abandoned. On a team with a member already
//     announced failed the Async call itself reports it, like its blocking
//     twin, and initiates nothing.
//
// Operations of different kinds — or different element types/operations —
// may be in flight together and interleave freely; operations of the same
// kind, blocking and Async calls alike, are serialized per image in call
// order (a blocking call issued while an Async one of its kind is in flight
// first drives that one to completion).
package caf

import "cafteams/internal/pgas"

// Handle is the completion handle of a non-blocking collective. Wait blocks
// until the operation completes (progressing every in-flight operation of
// the image); Test polls without blocking; Done observes without
// progressing.
type Handle = pgas.AsyncOp

// Async initiates op — one blocking collective or synchronization call of
// this image, e.g. func() { im.CoScatter(send, recv, 1) } — as a split-phase
// operation and returns its handle.
//
// op runs at once, up to its first flag wait that does not hold: the team
// (the one current at the Async call), the root and the algorithm are
// resolved there, and a failed member or an out-of-range image index is
// refused by a panic out of Async, exactly as from the blocking call, with no
// operation left pending. After initiation each wait on the image's own flags
// yields to the image; anything else op does that blocks (a coarray Get, a
// Compute) blocks the image.
func (im *Image) Async(op func()) *Handle { return im.img.StartOp(op) }

// Progress gives the runtime an explicit chance to advance this image's
// in-flight non-blocking collectives without blocking, returning how many
// are still pending. Code that overlaps through Compute or Wait never needs
// it; spin loops over application conditions should call it each iteration.
func (im *Image) Progress() int { return im.img.Progress() }

// CoSumAsync is Async(func() { im.CoSum(a) }).
func (im *Image) CoSumAsync(a []float64) *Handle { return im.Async(func() { im.CoSum(a) }) }

// CoMaxAsync is Async(func() { im.CoMax(a) }).
func (im *Image) CoMaxAsync(a []float64) *Handle { return im.Async(func() { im.CoMax(a) }) }

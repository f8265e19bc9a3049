package core

import (
	"fmt"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// This file is the entry surface of the split-phase (non-blocking)
// collective subsystem. The collectives themselves are state machines
// (async_reduce.go, async_bcast.go, async_allgather.go) that decompose the
// existing blocking algorithms — the same puts, the same flag discipline,
// the same parity regions — into initiate/progress/complete steps driven by
// the per-image progress engine in internal/pgas.
//
// The async algorithms are first-class registry citizens: "nb-rd",
// "nb-2level", "nb-binomial", "nb-ring" live in the same Kind × name tables
// as their blocking counterparts, so teamsbench -alg sweeps them, Tuning can
// pin them, and RunAllreduce("nb-rd", ...) runs one to completion (initiate
// + immediate Wait). Start* return the handle instead.

// Handle is the completion handle of a split-phase collective: the caller
// initiates with Start*/Policy*Async, overlaps local work (Image.Compute
// progresses in-flight collectives), and completes with Wait. Test polls.
type Handle = pgas.AsyncOp

// nbState is the per-(team, algorithm, element type) bookkeeping of one
// split-phase machine family: a flags array plus the episode/credit counters
// the blocking algorithms keep in their state structs. Each image only
// writes its own entries.
type nbState struct {
	flags *pgas.Flags
	ep    []int64
	// expect0/expect1 count exactly the notifications a member should have
	// received on slots 0/1 when its role varies between episodes.
	expect0, expect1 []int64
	// ackExpect/payExpect are the parity-indexed credit counters of the
	// flow-controlled broadcast (see coll.SubgroupBcastBinomial);
	// sendExpect counts same-parity root->leader handoff puts (the
	// two-level broadcast's handoff credit, mirroring redState).
	ackExpect  [2][]int64
	payExpect  [2][]int64
	sendExpect [2][]int64
	// done is the flag slot each image stamps (SetLocal) with the episode
	// number it has completed; episode e+1 of the same machine family on
	// the same image is gated on done >= e, serializing same-family
	// episodes exactly like blocking call order does. Cross-family
	// operations (a co_sum and a co_broadcast in flight together) are
	// independent states and interleave freely.
	done int
}

// getNBState returns the shared split-phase state for one algorithm family
// on a team, with slots protocol slots plus the completion-gate slot. The
// per-view memo keeps repeat calls off the key formatting and the world
// registry lock.
func getNBState(v *team.View, alg string, slots int) *nbState {
	return v.Memo(team.MemoKey{Kind: "core:nb", Alg: alg}, func() interface{} {
		w := v.Img.World()
		key := fmt.Sprintf("core:nb:%s:team%d", alg, v.T.ID())
		return pgas.LookupOrCreate(w, key, func() interface{} {
			sz := v.T.Size()
			s := &nbState{
				flags:   pgas.NewFlags(w, key, slots+1),
				ep:      make([]int64, sz),
				expect0: make([]int64, sz),
				expect1: make([]int64, sz),
				done:    slots,
			}
			s.ackExpect[0] = make([]int64, sz)
			s.ackExpect[1] = make([]int64, sz)
			s.payExpect[0] = make([]int64, sz)
			s.payExpect[1] = make([]int64, sz)
			s.sendExpect[0] = make([]int64, sz)
			s.sendExpect[1] = make([]int64, sz)
			return s
		})
	}).(*nbState)
}

// nbFloorPow2 returns the largest power of two <= n (n >= 1).
func nbFloorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// nbBase carries what every split-phase machine shares: the team view, the
// state, this machine's episode, and the flag condition it is blocked on.
type nbBase struct {
	v   *team.View
	st  *nbState
	ep  int64
	idx int
	min int64
}

// newNBBase claims the next episode of the machine family for this image.
func newNBBase(v *team.View, st *nbState) nbBase {
	st.ep[v.Rank]++
	return nbBase{v: v, st: st, ep: st.ep[v.Rank]}
}

// Blocked reports the flag condition the machine needs next.
func (b *nbBase) Blocked() (*pgas.Flags, int, int64) { return b.st.flags, b.idx, b.min }

// blockOn records the condition the next phase needs.
func (b *nbBase) blockOn(idx int, min int64) { b.idx, b.min = idx, min }

// ready reports whether the recorded condition is satisfied (a non-blocking
// peek — the split-phase replacement for WaitFlagGE).
func (b *nbBase) ready() bool {
	return b.st.flags.Peek(b.v.Img.Rank(), b.idx) >= b.min
}

// gate blocks episode e until this image completed episode e-1 of the same
// machine family, giving in-flight machines the same per-image episode
// serialization blocking call order provides (the parity regions and credit
// schemes are only safe under it).
func (b *nbBase) gate() { b.blockOn(b.st.done, b.ep-1) }

// finish stamps this episode complete, releasing the next gated episode.
func (b *nbBase) finish() { b.v.Img.SetLocal(b.st.flags, b.st.done, b.ep) }

// StartAllreduce initiates the named split-phase allreduce on buf and
// returns its handle; buf must not be read or written until Wait. Async
// algorithm names for KindAllreduce: "nb-rd" (flat recursive doubling) and
// "nb-2level" (the hierarchy-aware two-level methodology).
func StartAllreduce[T any](name string, v *team.View, buf []T, op coll.Op[T]) *Handle {
	v.Img.World().Stats().Count(trace.OpReduce)
	switch name {
	case "nb-rd":
		return v.Img.StartOp(newNBAllreduceRD(v, coll.TeamRanks(v), v.Rank, buf, op, "rd", pgas.ViaConduit))
	case "nb-2level":
		return v.Img.StartOp(newNBAllreduce2(v, buf, op))
	default:
		panic(noAsyncAlg(KindAllreduce, name))
	}
}

// StartBroadcast initiates the named split-phase broadcast from team rank
// root. Async names for KindBroadcast: "nb-binomial", "nb-2level".
func StartBroadcast[T any](name string, v *team.View, root int, buf []T) *Handle {
	v.Img.World().Stats().Count(trace.OpBroadcast)
	switch name {
	case "nb-binomial":
		return v.Img.StartOp(newNBBcast(v, coll.TeamRanks(v), v.Rank, root, buf, "binomial", pgas.ViaConduit))
	case "nb-2level":
		return v.Img.StartOp(newNBBcast2(v, root, buf))
	default:
		panic(noAsyncAlg(KindBroadcast, name))
	}
}

// StartAllgather initiates the named split-phase allgather of mine into out
// (ordered by team rank). Async names for KindAllgather: "nb-ring",
// "nb-2level".
func StartAllgather[T any](name string, v *team.View, mine, out []T) *Handle {
	v.Img.World().Stats().Count(trace.OpReduce)
	switch name {
	case "nb-ring":
		return v.Img.StartOp(newNBAgRing(v, mine, out, pgas.ViaConduit))
	case "nb-2level":
		return v.Img.StartOp(newNBAg2(v, mine, out))
	default:
		panic(noAsyncAlg(KindAllgather, name))
	}
}

func noAsyncAlg(k Kind, name string) string {
	var have []string
	for _, n := range builtins[k] {
		if _, ok := AsyncCounterpart(k, n); ok {
			have = append(have, n)
		}
	}
	return fmt.Sprintf("core: algorithm %s/%s has no split-phase form (async-capable: %v)", k, name, have)
}

// AsyncCounterpart maps a registry algorithm name to the split-phase
// algorithm that stands in for it on the async path: hierarchy-aware names
// map to the two-level machine, flat built-ins to the flat machine of the
// kind, and async names to themselves. Custom algorithms (and kinds without
// an async form) report false — callers fall back to running the blocking
// algorithm to completion.
func AsyncCounterpart(k Kind, name string) (string, bool) {
	isBuiltin := false
	for _, b := range builtins[k] {
		if b == name {
			isBuiltin = true
			break
		}
	}
	if !isBuiltin {
		return "", false
	}
	hierarchical := name == "2level" || name == "3level" || name == "nb-2level"
	switch k {
	case KindAllreduce:
		if hierarchical {
			return "nb-2level", true
		}
		return "nb-rd", true
	case KindBroadcast:
		if hierarchical {
			return "nb-2level", true
		}
		return "nb-binomial", true
	case KindAllgather:
		if hierarchical {
			return "nb-2level", true
		}
		return "nb-ring", true
	default:
		return "", false
	}
}

// PolicyAllreduceAsync initiates a split-phase team allreduce, selecting the
// machine through the policy exactly like the blocking path selects its
// algorithm. When the resolved algorithm has no split-phase form (a custom
// registration), the blocking algorithm runs to completion and an
// already-done handle is returned.
func PolicyAllreduceAsync[T any](p Policy, v *team.View, buf []T, op coll.Op[T]) *Handle {
	name := p.algFor(KindAllreduce, v, len(buf), pgas.ElemSize[T]())
	if nb, ok := AsyncCounterpart(KindAllreduce, name); ok {
		return StartAllreduce(nb, v, buf, op)
	}
	RunAllreduce(name, v, buf, op)
	return v.Img.CompletedOp()
}

// PolicyBroadcastAsync initiates a split-phase team broadcast from team rank
// root under the policy.
func PolicyBroadcastAsync[T any](p Policy, v *team.View, root int, buf []T) *Handle {
	name := p.algFor(KindBroadcast, v, len(buf), pgas.ElemSize[T]())
	if nb, ok := AsyncCounterpart(KindBroadcast, name); ok {
		return StartBroadcast(nb, v, root, buf)
	}
	RunBroadcast(name, v, root, buf)
	return v.Img.CompletedOp()
}

// PolicyAllgatherAsync initiates a split-phase team allgather under the
// policy.
func PolicyAllgatherAsync[T any](p Policy, v *team.View, mine, out []T) *Handle {
	name := p.algFor(KindAllgather, v, len(mine), pgas.ElemSize[T]())
	if nb, ok := AsyncCounterpart(KindAllgather, name); ok {
		return StartAllgather(nb, v, mine, out)
	}
	RunAllgather(name, v, mine, out)
	return v.Img.CompletedOp()
}

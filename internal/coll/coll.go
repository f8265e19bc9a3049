// Package coll implements the *flat* (hierarchy-oblivious) collective
// algorithms the paper uses as baselines — centralized linear, dissemination,
// binomial tree and tournament barriers; linear, binomial-tree,
// recursive-doubling and ring all-to-all reductions; linear, binomial and
// scatter-allgather broadcasts; linear and binomial scatters and gathers;
// pairwise-exchange and Bruck personalized all-to-alls; linear and
// distance-doubling prefix reductions — plus the plumbing (per-team flag
// arrays, episode counters, scratch coarrays) shared with the
// hierarchy-aware algorithms in internal/core.
//
// Flat algorithms address every peer uniformly through the portable conduit
// path (pgas.ViaConduit), exactly like a runtime with no knowledge of which
// images share a node. Their synchronization uses the "sync_flags carry"
// idiom: flags are monotone counters and an episode only raises the wait
// threshold, so each round needs a single wait (the paper's refinement over
// the two-wait scheme of Hensgen et al.).
//
// Like internal/core, this package is backend-agnostic — internal/pgas is
// its only way down, never internal/sim. The boundary is enforced
// mechanically by internal/lint's layers analyzer (cmd/caflint under
// go vet), replacing the old hand-verified convention.
package coll

import (
	"fmt"
	"math/bits"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
)

// Number constrains the element types the predefined reductions (sum, max,
// min) operate on: every Go numeric type with a total order under < and +.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// Op combines src into dst element-wise (dst = dst ⊕ src). Operations must
// be associative and commutative; the runtime may combine partial vectors in
// any order.
type Op[T any] struct {
	Name    string
	Combine func(dst, src []T)
}

// SumOp returns the element-wise summation operation over T (co_sum).
func SumOp[T Number]() Op[T] {
	return Op[T]{Name: "sum", Combine: func(dst, src []T) {
		for i := range dst {
			dst[i] += src[i]
		}
	}}
}

// MaxOp returns the element-wise maximum operation over T (co_max).
func MaxOp[T Number]() Op[T] {
	return Op[T]{Name: "max", Combine: func(dst, src []T) {
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}}
}

// MinOp returns the element-wise minimum operation over T (co_min).
func MinOp[T Number]() Op[T] {
	return Op[T]{Name: "min", Combine: func(dst, src []T) {
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	}}
}

// Predefined float64 reduction operations (the CAF co_sum, co_max, co_min
// intrinsics at the default element type).
var (
	Sum = SumOp[float64]()
	Max = MaxOp[float64]()
	Min = MinOp[float64]()
)

// tag names T for state and scratch keys: a float64 and an int64 collective
// on the same team must not share flag arrays or landing regions.
func tag[T any]() string { return pgas.TypeName[T]() }

// State is the per-(team, algorithm) collective state — the one such struct
// of internal/coll and internal/core: a flag array plus, per member, the
// episode counter, the split-phase operation that claimed the latest episode,
// and exact per-slot arrival expectations. Each image only writes its own
// member entry.
type State struct {
	Flags   *pgas.Flags
	members []member
}

type member struct {
	ep int64
	// holder is the split-phase operation whose body claimed episode ep, nil
	// when a blocking call did. The next claim waits for it (see Next).
	holder *pgas.AsyncOp
	// expect[s] is this member's cumulative expected count on flag slot s,
	// for waits the episode number over-counts: arrivals when the member's
	// role varies with the root (each member counts exactly what its role in
	// each episode entitles it to), acks on a parity ack slot, and — doubling
	// as a send counter on credit slots — the member's own same-parity sends
	// (before its k-th it waits for k-1 credits, which proves every landing
	// region it wrote before was consumed). Created by the member's first
	// Expect call, so only algorithms and roles that count pay for it.
	expect []int64
}

// GetState returns the shared state for one algorithm instance on a team,
// with slots flag slots per member. The per-view memo makes repeat calls (one
// per episode, per image) free of key formatting and registry traffic; the
// state itself stays team-shared through the world registry.
func GetState(v *team.View, alg string, slots int) *State {
	return v.Memo(team.MemoKey{Kind: "coll:state", Alg: alg}, func() interface{} {
		w := v.Img.World()
		key := fmt.Sprintf("coll:%s:team%d", alg, v.T.ID())
		return pgas.LookupOrCreate(w, key, func() interface{} {
			return &State{Flags: pgas.NewFlags(w, key, slots), members: make([]member, v.T.Size())}
		})
	}).(*State)
}

// Next claims the caller's next episode of the state and returns its number.
// Episodes of one state on one image run one at a time, in claim order (the
// parity regions and credit schemes are only safe under that): when the
// image's previous episode belongs to a split-phase operation still in
// flight, the claim waits for it — a split-phase body yields, a blocking call
// drives the progress engine. With nothing in flight it is an increment.
//
// Several claims can be queued behind one holder. The engine resumes them in
// initiation order, so the first to wake claims and becomes the holder the
// others find when they re-check: a loop, not an if.
func (s *State) Next(v *team.View) int64 {
	m := &s.members[v.Rank]
	cur := v.Img.Running()
	for m.holder != nil && m.holder != cur && !m.holder.Done() {
		m.holder.Wait()
	}
	m.holder = cur // nil on the blocking path: a finished holder is let go
	m.ep++
	return m.ep
}

// Expect returns the caller's own per-slot expectation counters.
func (s *State) Expect(v *team.View) []int64 {
	m := &s.members[v.Rank]
	if m.expect == nil {
		m.expect = make([]int64, s.Flags.Slots())
	}
	return m.expect
}

// Rounds returns ceil(log2 n): the number of dissemination /
// recursive-doubling rounds for n participants.
func Rounds(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// FloorPow2 returns the largest power of two <= n.
func FloorPow2(n int) int {
	if n <= 0 {
		return 0
	}
	return 1 << (bits.Len(uint(n)) - 1)
}

// bucket rounds n up to a power of two for scratch sizing, so repeated calls
// with varying lengths reuse one allocation per size class.
func bucket(n int) int {
	if n <= 16 {
		return 16
	}
	if n&(n-1) == 0 {
		return n
	}
	return 1 << bits.Len(uint(n))
}

// Scratch returns the team's scratch coarray for one role of one algorithm:
// regions regions of at least elems elements each (the returned capacity,
// elems rounded up to its size class), allocated per size class and element
// type. It is the one scratch allocator of internal/coll and internal/core.
//
// Slabs materialise on first touch (see pgas.Coarray), so a scratch costs an
// image only what its role touches — provided roles do not share a slab.
// Algorithms therefore ask once per role ("in", "res", ...; "" when there is
// only one): the inbox or staging area of a leader, root or parent and the
// result landing of a member are separate coarrays, and an image only ever
// materialises the boxes of roles it has played.
func Scratch[T any](v *team.View, alg, role string, elems, regions int) (*pgas.Coarray[T], int) {
	cap_ := bucket(elems)
	mk := func() interface{} {
		name := fmt.Sprintf("coll:%s:%s:%s:team%d:cap%d:r%d", alg, role, tag[T](), v.T.ID(), cap_, regions)
		return pgas.NewTeamCoarray[T](v.Img.World(), name, cap_*regions, v.T.Members())
	}
	// The per-view memo keeps repeat calls (one per episode, per image) off
	// the name formatting and the world registry lock.
	key := team.MemoKey{Kind: "coll:scratch", Alg: alg, Role: role, N: cap_, M: regions}
	if co, ok := v.Memo(key, mk).(*pgas.Coarray[T]); ok {
		return co, cap_
	}
	// Memo slot taken by another element type for the same (alg, role,
	// class): the registry keys on the type as well.
	return mk().(*pgas.Coarray[T]), cap_
}

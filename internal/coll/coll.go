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

// state is the per-(team, algorithm) collective state: a flag array and
// per-member episode counters. Each image only writes its own entries.
type state struct {
	flags *pgas.Flags
	ep    []int64
	// aux tracks, per member, how many notifications the member should
	// have received on a role-dependent slot. When an image's role varies
	// between episodes (it is sometimes the broadcast root), the episode
	// number over-counts; aux counts exactly.
	aux []int64
	// ackExpect[p][r] is member r's cumulative expected ack count on the
	// parity-p ack slot (credit-based flow control for broadcasts; see
	// SubgroupBcastBinomial).
	ackExpect [2][]int64
	// payExpect[p][r] is member r's cumulative expected payload-arrival
	// count on the parity-p payload slot.
	payExpect [2][]int64
	// slotExpect[r][s] is member r's cumulative expected arrival count on
	// flag slot s, for algorithms whose communication tree varies with
	// the root (each member counts exactly the arrivals its role in each
	// episode entitles it to). Rows are created by their member's first
	// expect call, so only algorithms and roles that count pay for them.
	slotExpect [][]int64
}

// expect returns the caller's own slotExpect row.
func (s *state) expect(rank int) []int64 {
	if s.slotExpect[rank] == nil {
		s.slotExpect[rank] = make([]int64, s.flags.Slots())
	}
	return s.slotExpect[rank]
}

// getState returns the shared state for one algorithm instance on a team.
// The per-view memo makes repeat calls (one per episode, per image) free of
// key formatting and registry traffic; the state itself stays team-shared
// through the world registry.
func getState(v *team.View, alg string, slots int) *state {
	return v.Memo(team.MemoKey{Kind: "coll:state", Alg: alg}, func() interface{} {
		return newState(v, alg, slots)
	}).(*state)
}

func newState(v *team.View, alg string, slots int) *state {
	w := v.Img.World()
	key := fmt.Sprintf("coll:%s:team%d", alg, v.T.ID())
	return pgas.LookupOrCreate(w, key, func() interface{} {
		s := &state{
			flags: pgas.NewFlags(w, key, slots),
			ep:    make([]int64, v.T.Size()),
			aux:   make([]int64, v.T.Size()),
		}
		s.ackExpect[0] = make([]int64, v.T.Size())
		s.ackExpect[1] = make([]int64, v.T.Size())
		s.payExpect[0] = make([]int64, v.T.Size())
		s.payExpect[1] = make([]int64, v.T.Size())
		s.slotExpect = make([][]int64, v.T.Size())
		return s
	}).(*state)
}

// next increments and returns the caller's episode counter.
func (s *state) next(rank int) int64 {
	s.ep[rank]++
	return s.ep[rank]
}

// rounds returns ceil(log2 n): the number of dissemination /
// recursive-doubling rounds for n participants.
func rounds(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// floorPow2 returns the largest power of two <= n.
func floorPow2(n int) int {
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

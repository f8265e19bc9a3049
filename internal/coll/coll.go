// Package coll implements the *flat* (hierarchy-oblivious) collective
// algorithms the paper uses as baselines — centralized linear, dissemination,
// binomial tree and tournament barriers; linear, binomial-tree,
// recursive-doubling and ring all-to-all reductions; linear, binomial and
// scatter-allgather broadcasts; linear and binomial scatters and gathers;
// pairwise-exchange and Bruck personalized all-to-alls; linear and
// distance-doubling prefix reductions — plus the plumbing (per-team flag
// arrays, episode counters, flow-control counters, scratch coarrays) shared
// with the hierarchy-aware algorithms in internal/core, which also run the
// Subgroup* forms of these algorithms among their node leaders.
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
// go vet).
package coll

import (
	"math/bits"
	"reflect"
	"strconv"
	"sync"

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

// numberOps holds the predefined operations over one element type. They are
// built once per type and found again by type: a generic function's closure
// carries its type dictionary, so building one per co_sum call would allocate
// on every call.
type numberOps[T Number] struct{ sum, max, min Op[T] }

var opsByType sync.Map // reflect.Type → *numberOps[T]

func opsFor[T Number]() *numberOps[T] {
	t := reflect.TypeFor[T]()
	if x, ok := opsByType.Load(t); ok {
		return x.(*numberOps[T])
	}
	x, _ := opsByType.LoadOrStore(t, &numberOps[T]{
		sum: Op[T]{Name: "sum", Combine: func(dst, src []T) {
			for i := range dst {
				dst[i] += src[i]
			}
		}},
		max: Op[T]{Name: "max", Combine: func(dst, src []T) {
			for i := range dst {
				if src[i] > dst[i] {
					dst[i] = src[i]
				}
			}
		}},
		min: Op[T]{Name: "min", Combine: func(dst, src []T) {
			for i := range dst {
				if src[i] < dst[i] {
					dst[i] = src[i]
				}
			}
		}},
	})
	return x.(*numberOps[T])
}

// SumOp returns the element-wise summation operation over T (co_sum).
func SumOp[T Number]() Op[T] { return opsFor[T]().sum }

// MaxOp returns the element-wise maximum operation over T (co_max).
func MaxOp[T Number]() Op[T] { return opsFor[T]().max }

// MinOp returns the element-wise minimum operation over T (co_min).
func MinOp[T Number]() Op[T] { return opsFor[T]().min }

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

// State is one image's handle on the state of one algorithm instance on its
// team — the one such struct of internal/coll and internal/core. Team-shared:
// a flag array plus, per member, the episode counter, the split-phase
// operation that claimed the latest episode, and exact per-slot arrival
// expectations (each image only writes its own member entry). Private to the
// image: the instance's scratch coarrays and temporaries it has asked for
// before, so a repeat call finds them by role without naming anything.
type State struct {
	Flags *pgas.Flags
	v     *team.View
	name  string  // the state's world-registry key; scratch names extend it
	m     *member // this image's entry of the team-shared member table
	bufs  []buffer
}

// buffer is one scratch coarray (regions > 0) or temporary (regions == 0) the
// image asked for before, found again by role and, for scratch, size class.
type buffer struct {
	role          string
	cap_, regions int
	x             interface{} // *pgas.Coarray[T], or *[]T for a temporary
}

// sharedState is the team-shared part of a State, one per instance in the
// world registry.
type sharedState struct {
	flags   *pgas.Flags
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

// Alg names one algorithm instance — the key of its state, and through it of
// its scratch and temporaries. It stays in parts (see team.AlgName): a call
// that finds its state in the view's cache formats and concatenates nothing.
type Alg = team.AlgName

// GetState returns the calling image's handle on the state of one algorithm
// instance on its team, with slots flag slots per member. The per-view cache
// makes repeat calls (one per episode, per image) one short scan, free of key
// formatting and registry traffic; the flags and the member table stay
// team-shared through the world registry.
func GetState(v *team.View, alg Alg, slots int) *State {
	memo := team.MemoKey{Kind: "coll:state", Alg: alg}
	if x := v.Cached(memo); x != nil {
		return x.(*State)
	}
	w := v.Img.World()
	key := "coll:" + alg.String() + ":team" + strconv.FormatInt(v.T.ID(), 10)
	sh := pgas.LookupOrCreate(w, key, func() interface{} {
		return &sharedState{flags: pgas.NewFlags(w, key, slots), members: make([]member, v.T.Size())}
	}).(*sharedState)
	return v.Cache(memo, &State{Flags: sh.flags, v: v, name: key, m: &sh.members[v.Rank]}).(*State)
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
func (s *State) Next() int64 {
	m := s.m
	cur := s.v.Img.Running()
	for m.holder != nil && m.holder != cur && !m.holder.Done() {
		m.holder.Wait()
	}
	m.holder = cur // nil on the blocking path: a finished holder is let go
	m.ep++
	return m.ep
}

// Expect returns the caller's own per-slot expectation counters, for the
// sites neither verb below fits (a gate on what earlier episodes counted,
// topped up after this episode's sends).
func (s *State) Expect() []int64 {
	if s.m.expect == nil {
		s.m.expect = make([]int64, s.Flags.Slots())
	}
	return s.m.expect
}

// Arrivals adds n to the caller's cumulative expectation on slot and waits,
// on the caller's own flag row, until that many have arrived.
func (s *State) Arrivals(slot, n int) {
	e := s.Expect()
	e[slot] += int64(n)
	me := s.v.Img
	me.WaitFlagGE(s.Flags, me.Rank(), slot, e[slot])
}

// Credit counts one more same-parity send of the caller on slot and, from the
// second on, waits for one credit fewer than it has sent: every landing
// region it wrote before has then been consumed.
func (s *State) Credit(slot int) {
	e := s.Expect()
	e[slot]++
	if sends := e[slot]; sends > 1 {
		me := s.v.Img
		me.WaitFlagGE(s.Flags, me.Rank(), slot, sends-1)
	}
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

// Scratch returns the team's scratch coarray for one role of the algorithm
// instance st is the state of: regions regions of at least elems elements each
// (the returned capacity, elems rounded up to its size class), allocated per
// size class and element type. It is the one scratch allocator of
// internal/coll and internal/core.
//
// Slabs materialise on first touch (see pgas.Coarray), so a scratch costs an
// image only what its role touches — provided roles do not share a slab.
// Algorithms therefore ask once per role ("in", "res", ...; "" when there is
// only one): the inbox or staging area of a leader, root or parent and the
// result landing of a member are separate coarrays, and an image only ever
// materialises the boxes of roles it has played.
func Scratch[T any](st *State, role string, elems, regions int) (*pgas.Coarray[T], int) {
	cap_ := bucket(elems)
	// A repeat call (one per episode, per image) finds the coarray among the
	// few buffers this image asked for before: no name formatting, no
	// registry lock.
	for i := range st.bufs {
		if b := &st.bufs[i]; b.role == role && b.cap_ == cap_ && b.regions == regions {
			if co, ok := b.x.(*pgas.Coarray[T]); ok {
				return co, cap_
			}
		}
	}
	name := st.name + ":" + role + ":cap" + strconv.Itoa(cap_) + ":r" + strconv.Itoa(regions)
	co := pgas.NewTeamCoarray[T](st.v.Img.World(), name, cap_*regions, st.v.T.Members())
	st.bufs = append(st.bufs, buffer{role, cap_, regions, co})
	return co, cap_
}

// Temp returns a buffer of n elements private to the calling image, for one
// role of the algorithm instance st is the state of, kept across episodes:
// packing and staging space that every episode would otherwise allocate. It
// holds whatever its last user left in it. Take it after st.Next — Next runs an
// image's episodes of one state one at a time, so a split-phase body still in
// flight never shares its temporaries with the next call.
func Temp[T any](st *State, role string, n int) []T {
	var p *[]T
	for i := range st.bufs {
		if b := &st.bufs[i]; b.role == role && b.regions == 0 {
			if q, ok := b.x.(*[]T); ok {
				p = q
				break
			}
		}
	}
	if p == nil {
		p = new([]T)
		st.bufs = append(st.bufs, buffer{role: role, x: p})
	}
	if cap(*p) < n {
		*p = make([]T, n)
	}
	return (*p)[:n]
}

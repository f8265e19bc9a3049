// Package coll implements the *flat* (hierarchy-oblivious) collective
// algorithms the paper uses as baselines — centralized linear, dissemination,
// binomial tree and tournament barriers; linear, binomial-tree,
// recursive-doubling and ring all-to-all reductions; linear, binomial and
// scatter-allgather broadcasts; linear and binomial scatters and gathers;
// pairwise-exchange and Bruck personalized all-to-alls; linear and
// distance-doubling prefix reductions — plus, in this file, the protocol
// vocabulary every algorithm body here and in internal/core is written in
// (State: per-team flags, episodes and the wait verbs Arrivals, Gate, Inject
// with the Publish done wave and its Relay; Box: a role's landing regions of
// the running episode). internal/core also runs the Subgroup* forms of these
// algorithms among its node leaders.
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
	"fmt"
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

// buffer is one box's scratch (regions > 0 per parity) or temporary (regions
// == 0) the image asked for before, found again by role and, for scratch, size
// class.
type buffer struct {
	role          string
	cap_, regions int
	x             interface{} // *landing[T], or *[]T for a temporary
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
	// Arrivals or Gate, so only algorithms and roles that count pay for it.
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

// expect returns the caller's own per-slot expectation counters.
func (s *State) expect() []int64 {
	if s.m.expect == nil {
		s.m.expect = make([]int64, s.Flags.Slots())
	}
	return s.m.expect
}

// The flow-control vocabulary. Every wait of an algorithm that the episode
// number over-counts is one of three verbs, each on the caller's own flag row:
// Arrivals (the late party is a sender), Gate (a receiver that has not yet
// consumed what the caller sent before) and Inject (the root of an earlier
// episode that has not yet seen it complete; Relay hands its stamp on).

// Arrivals adds n to the caller's cumulative expectation on slot and waits
// until that many have arrived.
func (s *State) Arrivals(slot, n int) {
	e := s.expect()
	e[slot] += int64(n)
	me := s.v.Img
	me.WaitFlagGE(s.Flags, me.Rank(), slot, e[slot])
}

// Gate waits for the credits of everything the caller counted on slot before,
// then counts n more sends: every landing region those sends wrote has been
// consumed, so the n same-parity sends that follow may overwrite them. n = 1
// is the credit gate of a fixed edge (before its k-th send the sender holds
// k−1 credits); n = a fan-out's targets is a leader's gate on the acks of its
// previous same-parity fan-out.
func (s *State) Gate(slot, n int) {
	e := s.expect()
	if prev := e[slot]; prev > 0 {
		me := s.v.Img
		me.WaitFlagGE(s.Flags, me.Rank(), slot, prev)
	}
	e[slot] += int64(n)
}

// Inject is the injection gate of the collectives whose root varies between
// episodes: nothing in their data flow stops a root from racing ahead of a
// slow receiver of an earlier root, so the running episode's root may not
// write before the episode two back — the last to use this parity's landing
// regions, whoever its root was — was published complete on slot (Publish).
func (s *State) Inject(slot int) {
	me := s.v.Img
	me.WaitFlagGE(s.Flags, me.Rank(), slot, s.m.ep-2)
}

// Relay hands Inject's stamp on to team rank, which the done wave does not
// reach (a wave to the node leaders only): once the episode two back is
// published complete on slot of the caller's row, it is stamped on rank's.
func (s *State) Relay(slot, rank int, via pgas.Via) {
	if me, done := s.v.Img, s.m.ep-2; done > 0 { // before that Inject waits for nothing
		me.WaitFlagGE(s.Flags, me.Rank(), slot, done)
		me.NotifySet(s.Flags, s.v.T.GlobalRank(rank), slot, done, via)
	}
}

// Publish is the done wave that Inject waits for: the running episode's root,
// having collected every ack, stamps the episode number on slot at itself and
// at every other member of group (team ranks), in group order starting at
// index first — the binomial waves start at the root (root-relative order),
// the linear and two-level ones at index 0 (absolute rank order).
func (s *State) Publish(slot int, group []int, first int, via pgas.Via) {
	me, ep := s.v.Img, s.m.ep
	me.SetLocal(s.Flags, slot, ep)
	for i := range group {
		if r := group[(first+i)%len(group)]; r != s.v.Rank {
			me.NotifySet(s.Flags, s.v.T.GlobalRank(r), slot, ep, via)
		}
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

// Box is one role's landing area for the running episode of a state: the
// episode's parity half of the role's scratch coarray — regions regions of Cap
// elements each, at least the elems asked for — on every member of the team.
// Consecutive episodes use opposite halves, which is what lets a sender run
// one episode ahead of a slow receiver; a Box owns that arithmetic, so an
// algorithm names regions of the running episode and cannot reach the other
// parity's. A two-word value: making one allocates nothing.
type Box[T any] struct {
	*landing[T]
	first int // the half's first region of the coarray
}

// landing is what NewBox memoises per role and size class: the scratch
// coarray, regions regions of cap_ elements per parity.
type landing[T any] struct {
	st            *State
	co            *pgas.Coarray[T]
	cap_, regions int
}

// NewBox returns role's box of st's running episode (take it after st.Next),
// the one scratch allocator of internal/coll and internal/core: the coarray
// behind it is allocated per role, size class (elems rounded up) and element
// type, at the first call that asks for it.
//
// Slabs materialise on first touch (see pgas.Coarray), so a scratch costs an
// image only what its role touches — provided roles do not share a slab.
// Algorithms therefore ask once per role ("in", "res", ...; "" when there is
// only one): the inbox or staging area of a leader, root or parent and the
// result landing of a member are separate coarrays, and an image only ever
// materialises the boxes of roles it has played.
func NewBox[T any](st *State, role string, elems, regions int) Box[T] {
	cap_, first := bucket(elems), int(st.m.ep%2)*regions
	// A repeat call (one per episode, per image) finds the landing among the
	// few buffers this image asked for before: no name formatting, no
	// registry lock.
	for i := range st.bufs {
		if b := &st.bufs[i]; b.role == role && b.cap_ == cap_ && b.regions == regions {
			if l, ok := b.x.(*landing[T]); ok {
				return Box[T]{l, first}
			}
		}
	}
	name := st.name + ":" + role + ":cap" + strconv.Itoa(cap_) + ":r" + strconv.Itoa(2*regions)
	co := pgas.NewTeamCoarray[T](st.v.Img.World(), name, 2*regions*cap_, st.v.T.Members())
	l := &landing[T]{st, co, cap_, regions}
	st.bufs = append(st.bufs, buffer{role, cap_, regions, l})
	return Box[T]{l, first}
}

// Cap returns the element capacity of one region.
func (b Box[T]) Cap() int { return b.cap_ }

// Region returns the caller's own copy of the box from region i on, to the end
// of the half (so a packed range may span regions): the first touch of a role
// materialises its slab here.
func (b Box[T]) Region(i int) []T {
	if i < 0 {
		b.outside(i, 0, 0)
	}
	lo, hi := (b.first+i)*b.cap_, (b.first+b.regions)*b.cap_
	return pgas.Local(b.co, b.st.v.Img)[lo:hi:hi]
}

// Take copies the head of region i out into dst and charges the copy.
func (b Box[T]) Take(i int, dst []T) {
	copy(dst, b.Region(i)[:len(dst)])
	b.st.v.Img.MemWork(pgas.ElemSize[T]() * len(dst))
}

// Land is the receiving end of a one-block delivery: await the one arrival on
// slot, Take region 0 into dst, and ack the sender (a team rank) on its
// ackSlot, so it may reuse the region.
func (b Box[T]) Land(slot int, dst []T, sender, ackSlot int, via pgas.Via) {
	s := b.st
	s.Arrivals(slot, 1)
	b.Take(0, dst)
	s.v.Img.NotifyAdd(s.Flags, s.v.T.GlobalRank(sender), ackSlot, 1, via)
}

// Put writes data into region i of team rank's box and then adds one to its
// flag slot (ordered after the data).
func (b Box[T]) Put(rank, i int, data []T, slot int, via pgas.Via) {
	b.PutAt(rank, i, 0, data, slot, via)
}

// PutAt is Put at element offset off of region i, for senders that share a
// packed range.
func (b Box[T]) PutAt(rank, i, off int, data []T, slot int, via pgas.Via) {
	at := (b.first+i)*b.cap_ + off
	if i < 0 || off < 0 || at+len(data) > (b.first+b.regions)*b.cap_ {
		b.outside(i, off, len(data))
	}
	s := b.st
	pgas.PutThenNotify(s.v.Img, b.co, s.v.T.GlobalRank(rank), at, data, s.Flags, slot, 1, via)
}

// outside refuses an access that leaves the box (kept out of line: the
// accessors are on every algorithm's hot path).
func (b Box[T]) outside(i, off, n int) {
	panic(fmt.Sprintf("coll: %d elements at region %d+%d leave the %d-region box of %q", n, i, off, b.regions, b.co.Name()))
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

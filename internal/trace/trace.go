// Package trace collects communication statistics from a simulated PGAS run:
// message counts and byte volumes split by hierarchy level (intra-node vs
// inter-node), per-operation counters, and simple time accounting.
//
// The paper's analysis argues in message counts — n·log n notifications for
// the dissemination barrier versus 2(n−1) for the centralized linear one —
// so the tracer makes those counts observable and testable (experiment E8).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Op is a traced operation kind: an index into opNames and into the per-op
// counters.
type Op int

// Operation kinds recorded by the runtime.
const (
	OpPut Op = iota
	OpGet
	OpAtomic
	OpNotify // flag puts used by synchronization
	OpWait
	OpCompute
	OpBarrier
	OpReduce
	OpBroadcast
	numOps
)

var opNames = [numOps]string{"put", "get", "atomic", "notify", "wait", "compute", "barrier", "reduce", "broadcast"}

func (op Op) String() string { return opNames[op] }

// Mem names a kind of symmetric runtime memory. Coarray slabs and flag rows
// are declared on every image but only created when first touched, so the
// bytes recorded here are what a run's roles actually cost.
type Mem int

// Memory kinds recorded by the runtime.
const (
	MemCoarray Mem = iota
	MemFlags
	numMems
)

// AutoKinds and AutoAlgs size the auto-decision counters: collective kinds
// by registered algorithms per kind. This package sits below the registry, so
// it counts positions, not names; internal/core holds its kind table to these
// bounds and owns the meaning of the two indices.
const (
	AutoKinds = 9
	AutoAlgs  = 8
)

// Stats accumulates counters. Recording is a handful of atomic adds — no
// lock, no map — because Message/Count sit on the per-message hot path of
// both backends: the sim scheduler calls them once per modeled transfer, and
// on the native backend every image goroutine records concurrently.
type Stats struct {
	intraMsgs  int64
	interMsgs  int64
	intraBytes int64
	interBytes int64
	selfMsgs   int64
	opCounts   [numOps]int64
	memBytes   [numMems]int64
	// The decision counters exist from the first decision on: a run that
	// never sets a Tuning entry to "auto" does not carry them.
	autoPicks atomic.Pointer[[AutoKinds][AutoAlgs]int64]
}

// New returns an empty statistics collector.
func New() *Stats {
	return &Stats{}
}

// Message records one point-to-point transfer of n payload bytes. sameNode
// classifies the hierarchy level; self marks an image messaging itself.
func (s *Stats) Message(op Op, sameNode, self bool, n int) {
	s.Count(op)
	if self {
		atomic.AddInt64(&s.selfMsgs, 1)
		return
	}
	if sameNode {
		atomic.AddInt64(&s.intraMsgs, 1)
		atomic.AddInt64(&s.intraBytes, int64(n))
	} else {
		atomic.AddInt64(&s.interMsgs, 1)
		atomic.AddInt64(&s.interBytes, int64(n))
	}
}

// Count bumps a bare operation counter (barrier entries, compute blocks...).
func (s *Stats) Count(op Op) { atomic.AddInt64(&s.opCounts[op], 1) }

// Materialize records nbytes of kind memory created by a first touch.
func (s *Stats) Materialize(kind Mem, nbytes int) {
	atomic.AddInt64(&s.memBytes[kind], int64(nbytes))
}

// AutoPick records that the auto rule resolved one call of collective kind
// kind to the algorithm at position alg of the kind's registry listing.
func (s *Stats) AutoPick(kind, alg int) {
	picks := s.autoPicks.Load()
	if picks == nil {
		picks = new([AutoKinds][AutoAlgs]int64)
		if !s.autoPicks.CompareAndSwap(nil, picks) {
			picks = s.autoPicks.Load()
		}
	}
	atomic.AddInt64(&picks[kind][alg], 1)
}

// Snapshot is an immutable copy of the counters.
type Snapshot struct {
	IntraMsgs  int64
	InterMsgs  int64
	IntraBytes int64
	InterBytes int64
	SelfMsgs   int64
	// CoarrayBytes and FlagBytes are the coarray slabs and flag rows
	// materialised by first touch, summed over all images.
	CoarrayBytes int64
	FlagBytes    int64
	Ops          map[Op]int64
	// AutoPicks[kind][i] counts the calls (one per image per call) the auto
	// rule resolved to the i-th registered algorithm of the kind; all zero
	// unless a Tuning entry is "auto".
	AutoPicks [AutoKinds][AutoAlgs]int64
}

// TotalMsgs returns all off-image messages (intra + inter node).
func (sn Snapshot) TotalMsgs() int64 { return sn.IntraMsgs + sn.InterMsgs }

// MaterializedBytes returns all symmetric memory created by first touch.
func (sn Snapshot) MaterializedBytes() int64 { return sn.CoarrayBytes + sn.FlagBytes }

// Snapshot returns a copy of the current counters. Only ops with non-zero
// counts appear in the map.
func (s *Stats) Snapshot() Snapshot {
	ops := make(map[Op]int64)
	for i := range s.opCounts {
		if v := atomic.LoadInt64(&s.opCounts[i]); v != 0 {
			ops[Op(i)] = v
		}
	}
	sn := Snapshot{
		IntraMsgs:    atomic.LoadInt64(&s.intraMsgs),
		InterMsgs:    atomic.LoadInt64(&s.interMsgs),
		IntraBytes:   atomic.LoadInt64(&s.intraBytes),
		InterBytes:   atomic.LoadInt64(&s.interBytes),
		SelfMsgs:     atomic.LoadInt64(&s.selfMsgs),
		CoarrayBytes: atomic.LoadInt64(&s.memBytes[MemCoarray]),
		FlagBytes:    atomic.LoadInt64(&s.memBytes[MemFlags]),
		Ops:          ops,
	}
	if picks := s.autoPicks.Load(); picks != nil {
		for k := range picks {
			for a := range picks[k] {
				sn.AutoPicks[k][a] = atomic.LoadInt64(&picks[k][a])
			}
		}
	}
	return sn
}

// Reset clears all counters.
func (s *Stats) Reset() {
	atomic.StoreInt64(&s.intraMsgs, 0)
	atomic.StoreInt64(&s.interMsgs, 0)
	atomic.StoreInt64(&s.intraBytes, 0)
	atomic.StoreInt64(&s.interBytes, 0)
	atomic.StoreInt64(&s.selfMsgs, 0)
	for i := range s.opCounts {
		atomic.StoreInt64(&s.opCounts[i], 0)
	}
	for i := range s.memBytes {
		atomic.StoreInt64(&s.memBytes[i], 0)
	}
	if picks := s.autoPicks.Load(); picks != nil {
		for k := range picks {
			for a := range picks[k] {
				atomic.StoreInt64(&picks[k][a], 0)
			}
		}
	}
}

// Timings accumulates named durations — per-collective-kind episode
// latencies in the cluster scheduler's workloads. Like Stats it is safe
// under the simulation's single-scheduler execution; the mutex covers
// concurrent snapshot readers.
type Timings struct {
	mu sync.Mutex
	m  map[string]TimingCell
}

// TimingCell is one accumulator: total nanoseconds over N additions.
type TimingCell struct {
	NS int64
	N  int64
}

// NewTimings returns an empty accumulator set.
func NewTimings() *Timings { return &Timings{m: make(map[string]TimingCell)} }

// Add charges ns nanoseconds to the named accumulator.
func (t *Timings) Add(name string, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.m[name]
	c.NS += ns
	c.N++
	t.m[name] = c
}

// Each visits the accumulators in sorted name order.
func (t *Timings) Each(fn func(name string, cell TimingCell)) {
	t.mu.Lock()
	names := make([]string, 0, len(t.m))
	for k := range t.m {
		names = append(names, k)
	}
	cells := make(map[string]TimingCell, len(t.m))
	for k, v := range t.m {
		cells[k] = v
	}
	t.mu.Unlock()
	sort.Strings(names)
	for _, k := range names {
		fn(k, cells[k])
	}
}

// Diff returns counters accumulated since the earlier snapshot.
func (sn Snapshot) Diff(earlier Snapshot) Snapshot {
	ops := make(map[Op]int64)
	for k, v := range sn.Ops {
		if d := v - earlier.Ops[k]; d != 0 {
			ops[k] = d
		}
	}
	d := Snapshot{
		IntraMsgs:    sn.IntraMsgs - earlier.IntraMsgs,
		InterMsgs:    sn.InterMsgs - earlier.InterMsgs,
		IntraBytes:   sn.IntraBytes - earlier.IntraBytes,
		InterBytes:   sn.InterBytes - earlier.InterBytes,
		SelfMsgs:     sn.SelfMsgs - earlier.SelfMsgs,
		CoarrayBytes: sn.CoarrayBytes - earlier.CoarrayBytes,
		FlagBytes:    sn.FlagBytes - earlier.FlagBytes,
		Ops:          ops,
	}
	for k := range d.AutoPicks {
		for a := range d.AutoPicks[k] {
			d.AutoPicks[k][a] = sn.AutoPicks[k][a] - earlier.AutoPicks[k][a]
		}
	}
	return d
}

// String renders the snapshot compactly, with op counters sorted by name.
func (sn Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "intra: %d msgs/%d B, inter: %d msgs/%d B, self: %d, materialized: %d B",
		sn.IntraMsgs, sn.IntraBytes, sn.InterMsgs, sn.InterBytes, sn.SelfMsgs, sn.MaterializedBytes())
	if len(sn.Ops) > 0 {
		keys := make([]Op, 0, len(sn.Ops))
		for k := range sn.Ops {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		b.WriteString(" [")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%d", k, sn.Ops[k])
		}
		b.WriteString("]")
	}
	return b.String()
}

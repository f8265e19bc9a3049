package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"cafteams/internal/topology"
)

// State is a placement policy's view of the machine at one scheduling
// decision. It is read-only to policies: the scheduler hands the same State
// to every Place call until a placement changes the machine, and
// TestPoliciesLeaveStateUnchanged holds every policy to it. A policy that
// consumes cores while computing a placement does so on its own copy of Free
// (working) — the authoritative allocation happens afterwards through
// Cluster.Allocate.
type State struct {
	CoresPerNode int
	// Free[n] lists node n's unallocated core ids, ascending.
	Free [][]int
	// TenantNodes[t] lists the nodes tenant t's running jobs occupy,
	// ascending. Policies enforcing tenant quotas consult it.
	TenantNodes map[int][]int
}

// freeCores is a policy's working copy of State.Free: the per-node lists are
// shared with the State (and never written), the list of lists is the
// policy's own to shorten.
type freeCores [][]int

// working returns a copy of s.Free for one placement computation to consume.
func (s *State) working() freeCores { return slices.Clone(s.Free) }

// take removes and returns the lowest free core of node n. It panics when
// the node is full — policies must check len(free[n]) first.
func (free freeCores) take(n int) topology.Loc {
	if len(free[n]) == 0 {
		panic(fmt.Sprintf("cluster: placement policy took a core on full node %d", n))
	}
	core := free[n][0]
	free[n] = free[n][1:]
	return topology.Loc{Node: n, Core: core}
}

// totalFree counts free cores across allowed nodes (all when allowed nil).
func (s *State) totalFree(allowed []bool) int {
	tot := 0
	for n, f := range s.Free {
		if allowed == nil || allowed[n] {
			tot += len(f)
		}
	}
	return tot
}

// Policy maps an arriving job to cores. Place returns one location per
// image, or ok=false when the job cannot be placed now and must queue.
// Policies are stateless between calls except for explicitly seeded
// randomness and decision counters.
type Policy interface {
	Name() string
	Place(s *State, job *Job) (locs []topology.Loc, ok bool)
}

// ---------------------------------------------------------------------------
// packed: first-fit onto the lowest-numbered nodes with free cores. Minimizes
// the number of nodes a job spans (good for intra-node collective phases),
// maximizes co-location with other jobs (bad under conduit contention).

type packed struct{}

// Packed returns the first-fit packing policy.
func Packed() Policy { return packed{} }

func (packed) Name() string { return "packed" }

func (packed) Place(s *State, job *Job) ([]topology.Loc, bool) {
	if s.totalFree(nil) < job.Images {
		return nil, false
	}
	free := s.working()
	locs := make([]topology.Loc, 0, job.Images)
	for n := 0; n < len(free) && len(locs) < job.Images; n++ {
		for len(free[n]) > 0 && len(locs) < job.Images {
			locs = append(locs, free.take(n))
		}
	}
	return locs, true
}

// ---------------------------------------------------------------------------
// spread: round-robin over the least-loaded nodes, placing consecutive
// images on distinct nodes wherever possible. Minimizes sharing of any one
// node's NIC/progress engine across jobs, at the price of more inter-node
// traffic within each job.

type spread struct{}

// Spread returns the round-robin spreading policy.
func Spread() Policy { return spread{} }

func (spread) Name() string { return "spread" }

func (spread) Place(s *State, job *Job) ([]topology.Loc, bool) {
	if s.totalFree(nil) < job.Images {
		return nil, false
	}
	free := s.working()
	// Nodes ordered by load (freest first, node id breaking ties) — the
	// deal order; re-sorted every round so the policy keeps spreading as
	// nodes fill.
	locs := make([]topology.Loc, 0, job.Images)
	for len(locs) < job.Images {
		order := make([]int, 0, len(free))
		for n := range free {
			if len(free[n]) > 0 {
				order = append(order, n)
			}
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if len(free[a]) != len(free[b]) {
				return len(free[a]) > len(free[b])
			}
			return a < b
		})
		for _, n := range order {
			if len(locs) == job.Images {
				break
			}
			locs = append(locs, free.take(n))
		}
	}
	return locs, true
}

// ---------------------------------------------------------------------------
// k-choices: the slasched global-scheduler idiom. Fully idle nodes are kept
// on an idle heap (freest-first); while it has entries the policy drains it.
// Otherwise it samples k candidate nodes with free cores and takes from the
// least loaded of the sample — the "power of k choices" load balancer.

type kChoices struct {
	k   int
	rng *rand.Rand

	// Decision counters, in the spirit of the exemplar's
	// nFoundIdle/nUsedKChoices reporting.
	foundIdle   int
	usedChoices int
}

// KChoices returns the k-choices policy. rng must not be nil: sampling is
// the policy's only randomness and must be caller-seeded for reproducible
// placements.
func KChoices(k int, rng *rand.Rand) Policy {
	if k < 1 {
		k = 1
	}
	if rng == nil {
		panic("cluster: KChoices needs an explicit *rand.Rand")
	}
	return &kChoices{k: k, rng: rng}
}

func (p *kChoices) Name() string { return fmt.Sprintf("kchoices(%d)", p.k) }

// Counters returns how many per-image decisions came from the idle heap vs
// from k-sampling.
func (p *kChoices) Counters() (foundIdle, usedChoices int) {
	return p.foundIdle, p.usedChoices
}

func (p *kChoices) Place(s *State, job *Job) ([]topology.Loc, bool) {
	if s.totalFree(nil) < job.Images {
		return nil, false
	}
	free := s.working()
	// Idle heap: fully idle nodes, ascending id (a deterministic heap
	// order); rebuilt once per placement, drained front-to-back.
	var idle []int
	for n := range free {
		if len(free[n]) == s.CoresPerNode {
			idle = append(idle, n)
		}
	}
	locs := make([]topology.Loc, 0, job.Images)
	for len(locs) < job.Images {
		if len(idle) > 0 {
			n := idle[0]
			locs = append(locs, free.take(n))
			p.foundIdle++
			if len(free[n]) == 0 {
				idle = idle[1:]
			}
			continue
		}
		// Sample k nodes with free cores; take from the freest sampled.
		cand := make([]int, 0, len(free))
		for n := range free {
			if len(free[n]) > 0 {
				cand = append(cand, n)
			}
		}
		best := -1
		for i := 0; i < p.k; i++ {
			n := cand[p.rng.Intn(len(cand))]
			if best < 0 || len(free[n]) > len(free[best]) ||
				(len(free[n]) == len(free[best]) && n < best) {
				best = n
			}
		}
		locs = append(locs, free.take(best))
		p.usedChoices++
	}
	return locs, true
}

// ---------------------------------------------------------------------------
// quota: per-tenant node cap around an inner policy. A tenant's jobs may
// only occupy up to nodesPerTenant distinct nodes; jobs that would exceed
// the cap queue until the tenant's earlier jobs retire. This is the
// isolation knob: with quota(1) per tenant, tenants never share a NIC.

type quota struct {
	inner Policy
	cap   int
}

// Quota wraps inner with a per-tenant cap of nodesPerTenant distinct nodes.
func Quota(inner Policy, nodesPerTenant int) Policy {
	if nodesPerTenant < 1 {
		nodesPerTenant = 1
	}
	return &quota{inner: inner, cap: nodesPerTenant}
}

func (q *quota) Name() string { return fmt.Sprintf("%s+quota(%d)", q.inner.Name(), q.cap) }

func (q *quota) Place(s *State, job *Job) ([]topology.Loc, bool) {
	mine := s.TenantNodes[job.Tenant]
	onMine := make([]bool, len(s.Free))
	for _, n := range mine {
		onMine[n] = true
	}
	headroom := q.cap - len(mine)
	if headroom < 0 {
		headroom = 0
	}
	// Restrict the inner policy's view: nodes already ours stay visible;
	// others are visible only while the job could still fit inside the cap.
	// The restriction is conservative — the inner policy sees at most
	// `headroom` foreign nodes (the freest ones), so any placement it
	// produces respects the cap.
	restricted := &State{
		CoresPerNode: s.CoresPerNode,
		Free:         make([][]int, len(s.Free)),
		TenantNodes:  s.TenantNodes,
	}
	foreign := make([]int, 0, len(s.Free))
	for n := range s.Free {
		if onMine[n] {
			restricted.Free[n] = s.Free[n]
		} else if len(s.Free[n]) > 0 {
			foreign = append(foreign, n)
		}
	}
	sort.Slice(foreign, func(i, j int) bool {
		a, b := foreign[i], foreign[j]
		if len(s.Free[a]) != len(s.Free[b]) {
			return len(s.Free[a]) > len(s.Free[b])
		}
		return a < b
	})
	if headroom > len(foreign) {
		headroom = len(foreign)
	}
	for _, n := range foreign[:headroom] {
		restricted.Free[n] = s.Free[n]
	}
	locs, ok := q.inner.Place(restricted, job)
	if !ok {
		return nil, false
	}
	// Double-check the cap over the union of existing + newly used nodes.
	used := map[int]bool{}
	for _, n := range mine {
		used[n] = true
	}
	for _, l := range locs {
		used[l.Node] = true
	}
	if len(used) > q.cap {
		return nil, false
	}
	return locs, true
}

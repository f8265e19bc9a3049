package cluster

import (
	"fmt"
	"math"
	"sort"

	"cafteams/internal/sim"
	"cafteams/internal/topology"
)

// StartFunc launches a placed job inside the simulation. It must spawn the
// job's images on the scheduler's cluster (caf.LaunchOn does this) and
// arrange for done to be called exactly once, from simulation context, when
// every image has *ended* — finished, killed or failed. stats carries
// whatever the workload measured (per-collective-kind latencies in
// clustersim) plus the failed-image count the scheduler's retry logic keys
// on. The returned handle lets the scheduler kill the job's images on a
// crashed node; return nil for workloads that never see faults.
type StartFunc func(job *Job, topo *topology.Topology, done func(stats JobStats)) JobHandle

// JobHandle is the scheduler's grip on one running job (caf.Job implements
// it). KillNodeImages must kill — and announce to the job's survivors — every
// image the job has on the given physical node, returning the kill count.
type JobHandle interface {
	KillNodeImages(node int) int
}

// JobStats is what a finished job reports back to the scheduler.
type JobStats struct {
	// Coll accumulates collective latency by kind name: total simulated
	// nanoseconds and episode count, as measured by the job's image 1.
	Coll map[string]CollStat
	// FailedImages is how many of the job's images failed (killed by a node
	// crash, or aborted observing one). Nonzero marks the run a failure: the
	// scheduler retries it under its RetryPolicy instead of retiring it.
	FailedImages int
}

// CollStat is one collective kind's latency accumulator.
type CollStat struct {
	NS sim.Time
	N  int64
}

// PerOp returns mean nanoseconds per episode.
func (c CollStat) PerOp() float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.NS) / float64(c.N)
}

// JobResult records one job's life cycle on the cluster.
type JobResult struct {
	Job  Job
	Locs []topology.Loc
	// Start is when the job's images launched (placement time), End when
	// the last image finished. Wait = Start - Arrival. For a retried job
	// Start/Locs describe the final (successful or given-up) attempt.
	Start, End sim.Time
	Stats      JobStats
	// Attempts is how many times the job ran (1 = no retries).
	Attempts int
	// Failures is how many runs ended with failed images.
	Failures int
	// FirstFailAt is when the job's first run failed (0 if none did).
	FirstFailAt sim.Time
	// WastedCoreNS is core-time burned by failed runs (cores × held time,
	// summed over every failed attempt) — work the cluster paid for but got
	// nothing from.
	WastedCoreNS sim.Time
	// GaveUp marks a job whose last permitted attempt also failed; its
	// Stats are from that failed run.
	GaveUp bool
}

// MTTR returns the job's time-to-repair: from its first failure to its
// final completion. Zero for jobs that never failed or never recovered.
func (r *JobResult) MTTR() sim.Time {
	if r.Failures == 0 || r.GaveUp {
		return 0
	}
	return r.End - r.FirstFailAt
}

// Wait returns time spent queued.
func (r *JobResult) Wait() sim.Time { return r.Start - r.Job.Arrival }

// Turnaround returns arrival-to-completion time.
func (r *JobResult) Turnaround() sim.Time { return r.End - r.Job.Arrival }

// Nodes returns the distinct nodes the job ran on, ascending.
func (r *JobResult) Nodes() []int {
	seen := map[int]bool{}
	for _, l := range r.Locs {
		seen[l.Node] = true
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Scheduler queues, places, starts and retires jobs on one cluster. It is
// event-driven: Submit registers arrival events on the cluster's
// environment, and completions (signaled by the StartFunc's done callback)
// free cores and re-try the queue. Everything runs inside the simulation,
// so a fixed (policy, job stream) pair gives byte-identical outcomes.
//
// The queue is FIFO with backfilling: when cores free up, every queued job
// is tried in arrival order and any that fits is started — a small job can
// overtake a blocked large one, but never delays it (the large job keeps
// its queue position).
type Scheduler struct {
	c      *Cluster
	policy Policy
	start  StartFunc
	retry  RetryPolicy

	pending []*Job
	running map[int]*JobResult
	handles map[int]JobHandle
	done    []*JobResult
	// attempts carries retry bookkeeping for jobs that failed at least
	// once, across their requeues, keyed by job ID.
	attempts map[int]*retryState
	// tenantNodes counts, per tenant, how many running jobs occupy each
	// node; quota policies read the key set.
	tenantNodes map[int]map[int]int
}

// retryState accumulates a job's failure history across attempts.
type retryState struct {
	attempts    int // completed runs so far (all failed)
	firstFailAt sim.Time
	wastedNS    sim.Time
}

// RetryPolicy bounds how the scheduler retries jobs whose run failed
// (FailedImages > 0): up to Max retries, the k-th delayed by
// min(Base<<(k-1), Cap) after the failure (see Backoff). The zero value never retries —
// a failed run retires immediately with GaveUp set, which preserves the
// scheduler's historical fault-oblivious behavior.
type RetryPolicy struct {
	Max  int
	Base sim.Time
	Cap  sim.Time
}

// Backoff returns the delay before retry attempt k (1-based): binary
// exponential from Base, capped at Cap when Cap is positive and always at
// MaxInt64/4, so a late retry neither wraps nor fires at once, and Env.After
// of the result cannot overflow.
func (p RetryPolicy) Backoff(k int) sim.Time {
	if p.Base <= 0 {
		return 0
	}
	limit := sim.Time(math.MaxInt64 / 4)
	if p.Cap > 0 {
		limit = min(limit, p.Cap)
	}
	d := min(p.Base, limit)
	for i := 1; i < k && d < limit; i++ {
		d = min(2*d, limit)
	}
	return d
}

// SetRetry installs the retry policy. Call before running the environment.
func (s *Scheduler) SetRetry(p RetryPolicy) { s.retry = p }

// NewScheduler builds a scheduler for cluster c using the given placement
// policy and job launcher.
func NewScheduler(c *Cluster, policy Policy, start StartFunc) *Scheduler {
	return &Scheduler{
		c:           c,
		policy:      policy,
		start:       start,
		running:     map[int]*JobResult{},
		handles:     map[int]JobHandle{},
		attempts:    map[int]*retryState{},
		tenantNodes: map[int]map[int]int{},
	}
}

// Submit registers the jobs' arrival events. Call before running the
// environment; jobs must be in nondecreasing arrival order.
func (s *Scheduler) Submit(jobs []Job) {
	for i := range jobs {
		j := jobs[i]
		s.c.Env().Schedule(j.Arrival, func() {
			jc := j
			s.pending = append(s.pending, &jc)
			s.tryPlace()
		})
	}
}

// state snapshots the cluster as placement policies see it. It is valid until
// a placement (or anything else) changes which cores are free.
func (s *Scheduler) state() *State {
	st := &State{
		CoresPerNode: s.c.CoresPerNode(),
		Free:         make([][]int, s.c.Nodes()),
		TenantNodes:  map[int][]int{},
	}
	for n := 0; n < s.c.Nodes(); n++ {
		st.Free[n] = s.c.FreeCoreIDs(n)
	}
	// Deterministic iteration: tenants and nodes sorted.
	tenants := make([]int, 0, len(s.tenantNodes))
	for t := range s.tenantNodes {
		tenants = append(tenants, t)
	}
	sort.Ints(tenants)
	for _, t := range tenants {
		nodes := make([]int, 0, len(s.tenantNodes[t]))
		for n, cnt := range s.tenantNodes[t] {
			if cnt > 0 {
				nodes = append(nodes, n)
			}
		}
		sort.Ints(nodes)
		if len(nodes) > 0 {
			st.TenantNodes[t] = nodes
		}
	}
	return st
}

// tryPlace scans the queue in arrival order and starts every job the policy
// can place on the current free cores.
func (s *Scheduler) tryPlace() {
	var still []*Job
	// One snapshot serves every job the policy cannot place: only a
	// successful placement changes the machine within a pass, and policies
	// leave the State as they found it (TestPoliciesLeaveStateUnchanged).
	var st *State
	for _, j := range s.pending {
		if st == nil {
			st = s.state()
		}
		locs, ok := s.policy.Place(st, j)
		if !ok {
			still = append(still, j)
			continue
		}
		if len(locs) != j.Images {
			panic(fmt.Sprintf("cluster: policy %s placed %d images for %v", s.policy.Name(), len(locs), j))
		}
		if err := s.c.Allocate(locs); err != nil {
			panic(fmt.Sprintf("cluster: policy %s produced invalid placement for %v: %v", s.policy.Name(), j, err))
		}
		st = nil
		topo, err := s.c.Topology(locs)
		if err != nil {
			panic(fmt.Sprintf("cluster: placement for %v does not form a topology: %v", j, err))
		}
		res := &JobResult{Job: *j, Locs: locs, Start: s.c.Env().Now()}
		s.running[j.ID] = res
		for _, l := range locs {
			tn := s.tenantNodes[j.Tenant]
			if tn == nil {
				tn = map[int]int{}
				s.tenantNodes[j.Tenant] = tn
			}
			tn[l.Node]++
		}
		jid := j.ID
		h := s.start(j, topo, func(stats JobStats) { s.finish(jid, stats) })
		if h != nil {
			s.handles[jid] = h
		}
	}
	s.pending = still
}

// FailNode schedules a node crash at time at: the node is marked down and
// drained (no new placements land there), and every running job with images
// on it has those images killed — announced to the job's survivors, so the
// job ends instead of wedging and its done callback reports the failure.
// If repair > 0 the node returns to service at at+repair and the queue is
// retried. Call before running the environment.
func (s *Scheduler) FailNode(at sim.Time, node int, repair sim.Time) {
	s.c.Env().Schedule(at, func() {
		s.c.MarkNodeDown(node)
		// Deterministic victim order: running jobs by ID.
		ids := make([]int, 0, len(s.running))
		for id := range s.running {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			res := s.running[id]
			onNode := false
			for _, l := range res.Locs {
				if l.Node == node {
					onNode = true
					break
				}
			}
			if !onNode {
				continue
			}
			if h := s.handles[id]; h != nil {
				h.KillNodeImages(node)
			}
		}
		if repair > 0 {
			s.c.Env().After(repair, func() {
				s.c.MarkNodeUp(node)
				s.tryPlace()
			})
		}
	})
}

// finish handles a job run ending: frees its cores and charges utilization
// either way, then retires the job (success, or failure past the retry
// budget) or requeues it after backoff (failure within budget), and retries
// the queue.
func (s *Scheduler) finish(id int, stats JobStats) {
	res, ok := s.running[id]
	if !ok {
		panic(fmt.Sprintf("cluster: done callback for unknown or already finished job %d", id))
	}
	delete(s.running, id)
	delete(s.handles, id)
	res.End = s.c.Env().Now()
	res.Stats = stats
	s.c.Release(res.Locs, res.End-res.Start)
	tn := s.tenantNodes[res.Job.Tenant]
	for _, l := range res.Locs {
		tn[l.Node]--
		if tn[l.Node] == 0 {
			delete(tn, l.Node)
		}
	}

	if stats.FailedImages > 0 {
		st := s.attempts[id]
		if st == nil {
			st = &retryState{firstFailAt: res.End}
			s.attempts[id] = st
		}
		st.attempts++
		st.wastedNS += sim.Time(len(res.Locs)) * (res.End - res.Start)
		if st.attempts <= s.retry.Max {
			// Requeue the job after capped exponential backoff; it keeps
			// its identity (and per-tenant quota standing) but competes for
			// a fresh placement — its old nodes may be down.
			jc := res.Job
			s.c.Env().After(s.retry.Backoff(st.attempts), func() {
				s.pending = append(s.pending, &jc)
				s.tryPlace()
			})
			s.tryPlace()
			return
		}
		res.GaveUp = true
	}

	if st := s.attempts[id]; st != nil {
		res.Attempts = st.attempts
		if !res.GaveUp {
			res.Attempts++ // the final, successful run
		}
		res.Failures = st.attempts
		res.FirstFailAt = st.firstFailAt
		res.WastedCoreNS = st.wastedNS
		delete(s.attempts, id)
	} else {
		res.Attempts = 1
	}
	s.done = append(s.done, res)
	s.tryPlace()
}

// Results returns the finished jobs sorted by job ID. Call after the
// environment has drained.
func (s *Scheduler) Results() []*JobResult {
	out := append([]*JobResult(nil), s.done...)
	sort.Slice(out, func(i, j int) bool { return out[i].Job.ID < out[j].Job.ID })
	return out
}

// Unfinished returns how many submitted jobs have not completed (queued or
// running) — nonzero after a drained simulation indicates a stuck workload
// or a job that can never fit.
func (s *Scheduler) Unfinished() int { return len(s.pending) + len(s.running) }

// Summary aggregates a policy run.
type Summary struct {
	Jobs          int
	AvgWait       float64 // ns
	MaxWait       sim.Time
	AvgTurnaround float64 // ns
	Makespan      sim.Time
	Utilization   float64
	// Coll aggregates collective latency across jobs by kind name.
	Coll map[string]CollStat

	// Fault-mode aggregates (zero when nothing failed).
	Completed    int      // jobs that finished a successful run
	GaveUp       int      // jobs whose retry budget ran out
	Retries      int      // extra runs beyond each job's first
	WastedCoreNS sim.Time // core-time burned by failed runs
	AvgMTTR      float64  // ns, mean over jobs that failed and recovered
	// Goodput is the fraction of busy core-time that produced completed
	// work: (busy - wasted) / busy. 1.0 when nothing failed.
	Goodput float64
}

// Summarize aggregates results against the cluster that ran them.
func Summarize(c *Cluster, results []*JobResult) Summary {
	sm := Summary{Jobs: len(results), Coll: map[string]CollStat{}, Goodput: 1}
	recovered := 0
	var mttr float64
	for _, r := range results {
		sm.AvgWait += float64(r.Wait())
		if r.Wait() > sm.MaxWait {
			sm.MaxWait = r.Wait()
		}
		sm.AvgTurnaround += float64(r.Turnaround())
		if r.End > sm.Makespan {
			sm.Makespan = r.End
		}
		for k, cs := range r.Stats.Coll {
			agg := sm.Coll[k]
			agg.NS += cs.NS
			agg.N += cs.N
			sm.Coll[k] = agg
		}
		if r.GaveUp {
			sm.GaveUp++
		} else {
			sm.Completed++
		}
		if r.Attempts > 1 {
			sm.Retries += r.Attempts - 1
		}
		sm.WastedCoreNS += r.WastedCoreNS
		if m := r.MTTR(); m > 0 {
			mttr += float64(m)
			recovered++
		}
	}
	if len(results) > 0 {
		sm.AvgWait /= float64(len(results))
		sm.AvgTurnaround /= float64(len(results))
	}
	if recovered > 0 {
		sm.AvgMTTR = mttr / float64(recovered)
	}
	sm.Utilization = c.Utilization(sm.Makespan)
	if busy := c.busyCoreNS; busy > 0 {
		sm.Goodput = float64(busy-sm.WastedCoreNS) / float64(busy)
	}
	return sm
}

// CollKinds returns the summary's collective kind names, sorted.
func (sm Summary) CollKinds() []string {
	out := make([]string, 0, len(sm.Coll))
	for k := range sm.Coll {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

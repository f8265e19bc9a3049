package cluster

// Tests for node-down accounting and the scheduler's kill/retry path. The
// workload is a stub JobHandle — these pin the scheduler's mechanics; the
// full caf-runtime integration is exercised by cmd/clustersim's fault tests.

import (
	"math"
	"testing"

	"cafteams/internal/sim"
	"cafteams/internal/topology"
)

func TestNodeDownDrainsAndRepairs(t *testing.T) {
	c := testCluster(t, 4, 2, 2) // 16 cores, 4 per node
	held := []topology.Loc{{Node: 1, Core: 0}, {Node: 1, Core: 1}}
	if err := c.Allocate(held); err != nil {
		t.Fatal(err)
	}
	c.MarkNodeDown(1)
	c.MarkNodeDown(1) // idempotent
	if !c.NodeDown(1) || c.NodeDown(0) {
		t.Fatal("down flags wrong")
	}
	// 16 - 2 allocated - 2 free-but-down = 12 allocatable.
	if c.TotalFree() != 12 {
		t.Fatalf("totalFree = %d after draining node 1, want 12", c.TotalFree())
	}
	if ids := c.FreeCoreIDs(1); ids != nil {
		t.Fatalf("down node offers cores %v to place on", ids)
	}
	if err := c.Allocate([]topology.Loc{{Node: 1, Core: 2}}); err == nil {
		t.Fatal("allocation on a down node succeeded")
	}
	// A rejected multi-node placement must roll back cleanly.
	if err := c.Allocate([]topology.Loc{{Node: 0, Core: 0}, {Node: 1, Core: 3}}); err == nil {
		t.Fatal("placement spanning a down node succeeded")
	}
	if c.FreeCores(0) != 4 || c.TotalFree() != 12 {
		t.Fatalf("rejected placement leaked: free0=%d total=%d", c.FreeCores(0), c.TotalFree())
	}
	// The dead job's cores come back to the node but not to the allocatable
	// pool until repair.
	c.Release(held, 5*sim.Microsecond)
	if c.FreeCores(1) != 4 || c.TotalFree() != 12 {
		t.Fatalf("release on down node: free1=%d total=%d, want 4/12", c.FreeCores(1), c.TotalFree())
	}
	c.MarkNodeUp(1)
	c.MarkNodeUp(1) // idempotent
	if c.TotalFree() != 16 {
		t.Fatalf("totalFree = %d after repair, want 16", c.TotalFree())
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{Max: 5, Base: 10 * sim.Microsecond, Cap: 35 * sim.Microsecond}
	want := []sim.Time{10, 20, 35, 35}
	for k, w := range want {
		if got := p.Backoff(k + 1); got != w*sim.Microsecond {
			t.Errorf("backoff(%d) = %d, want %d", k+1, got, w*sim.Microsecond)
		}
	}
	if got := (RetryPolicy{}).Backoff(1); got != 0 {
		t.Errorf("zero policy backoff = %d, want 0", got)
	}
	// No cap: the doubling saturates instead of wrapping (at 20 µs it used to
	// turn negative at k = 50 and zero by k = 60).
	uncapped := RetryPolicy{Max: 1000, Base: 20 * sim.Microsecond}
	prev := sim.Time(0)
	for _, k := range []int{1, 49, 50, 64, 1000} {
		got := uncapped.Backoff(k)
		if got <= 0 || got < prev || got > math.MaxInt64/4 {
			t.Errorf("uncapped backoff(%d) = %d after %d: want positive, non-decreasing, at most MaxInt64/4", k, got, prev)
		}
		prev = got
	}
}

// stubJob is a fake running job: it completes after runFor unless killed
// first, in which case it reports a failed run immediately.
type stubJob struct {
	env    *sim.Env
	locs   []topology.Loc
	done   func(JobStats)
	killed bool
	over   bool
}

func (s *stubJob) KillNodeImages(node int) int {
	n := 0
	for _, l := range s.locs {
		if l.Node == node {
			n++
		}
	}
	if n == 0 || s.over || s.killed {
		return 0
	}
	s.killed = true
	s.env.After(0, func() { s.done(JobStats{FailedImages: n}) })
	return n
}

func (s *stubJob) finishIfAlive() {
	if !s.killed && !s.over {
		s.over = true
		s.done(JobStats{})
	}
}

// TestSchedulerRetriesKilledJob: a node crash mid-run kills the job; the
// scheduler retries it after backoff on surviving nodes, and the result
// carries attempts, MTTR and wasted core-time.
func TestSchedulerRetriesKilledJob(t *testing.T) {
	c := testCluster(t, 2, 1, 2) // 2 nodes x 2 cores
	const runFor = 20 * sim.Microsecond
	var starts [][]topology.Loc
	sched := NewScheduler(c, Packed(), func(job *Job, topo *topology.Topology, done func(JobStats)) JobHandle {
		j := &stubJob{env: c.Env(), done: done}
		for i := 0; i < topo.NumImages(); i++ {
			n, _ := topo.SocketOf(i)
			j.locs = append(j.locs, topology.Loc{Node: n})
		}
		starts = append(starts, j.locs)
		c.Env().After(runFor, j.finishIfAlive)
		return j
	})
	sched.SetRetry(RetryPolicy{Max: 3, Base: 5 * sim.Microsecond, Cap: 40 * sim.Microsecond})
	sched.Submit([]Job{{ID: 0, Images: 2, Arrival: 0}})
	// Packed places job 0 on node 0; crash it mid-run, repair later.
	const crashAt, repair = 8 * sim.Microsecond, 100 * sim.Microsecond
	sched.FailNode(crashAt, 0, repair)
	if err := c.Env().Run(0); err != nil {
		t.Fatal(err)
	}
	if sched.Unfinished() != 0 {
		t.Fatalf("%d jobs unfinished", sched.Unfinished())
	}
	if len(starts) != 2 {
		t.Fatalf("job started %d times, want 2 (original + one retry)", len(starts))
	}
	for _, l := range starts[1] {
		if l.Node == 0 {
			t.Fatalf("retry placed on the down node: %v", starts[1])
		}
	}
	rs := sched.Results()
	if len(rs) != 1 {
		t.Fatalf("%d results", len(rs))
	}
	r := rs[0]
	if r.GaveUp || r.Attempts != 2 || r.Failures != 1 {
		t.Fatalf("result attempts=%d failures=%d gaveUp=%v, want 2/1/false", r.Attempts, r.Failures, r.GaveUp)
	}
	if r.FirstFailAt != crashAt {
		t.Fatalf("first failure at %d, want %d", r.FirstFailAt, crashAt)
	}
	// The failed run burned 2 cores for crashAt ns.
	if r.WastedCoreNS != 2*crashAt {
		t.Fatalf("wasted core-time %d, want %d", r.WastedCoreNS, 2*crashAt)
	}
	// Retry backoff(1)=5us after the failure, then a full clean run.
	wantEnd := crashAt + 5*sim.Microsecond + runFor
	if r.End != wantEnd {
		t.Fatalf("job ended at %d, want %d", r.End, wantEnd)
	}
	if r.MTTR() != wantEnd-crashAt {
		t.Fatalf("MTTR = %d, want %d", r.MTTR(), wantEnd-crashAt)
	}
	// The env drains past the repair event, so the full pool is back.
	if c.TotalFree() != 4 {
		t.Fatalf("totalFree = %d after repair, want 4", c.TotalFree())
	}
	sm := Summarize(c, rs)
	if sm.Completed != 1 || sm.GaveUp != 0 || sm.Retries != 1 || sm.WastedCoreNS != 2*crashAt {
		t.Fatalf("summary %+v", sm)
	}
	if sm.Goodput <= 0 || sm.Goodput >= 1 {
		t.Fatalf("goodput %v, want in (0,1) with wasted work present", sm.Goodput)
	}
	if sm.AvgMTTR != float64(wantEnd-crashAt) {
		t.Fatalf("avg MTTR %v, want %v", sm.AvgMTTR, float64(wantEnd-crashAt))
	}
}

// TestSchedulerGivesUpWithoutRetryPolicy: under the zero RetryPolicy a
// failed run retires immediately with GaveUp — the historical behavior.
func TestSchedulerGivesUpWithoutRetryPolicy(t *testing.T) {
	c := testCluster(t, 2, 1, 2)
	starts := 0
	sched := NewScheduler(c, Packed(), func(job *Job, topo *topology.Topology, done func(JobStats)) JobHandle {
		starts++
		j := &stubJob{env: c.Env(), done: done, locs: []topology.Loc{{Node: 0}, {Node: 0}}}
		c.Env().After(20*sim.Microsecond, j.finishIfAlive)
		return j
	})
	sched.Submit([]Job{{ID: 0, Images: 2, Arrival: 0}})
	sched.FailNode(5*sim.Microsecond, 0, 10*sim.Microsecond)
	if err := c.Env().Run(0); err != nil {
		t.Fatal(err)
	}
	if starts != 1 {
		t.Fatalf("job started %d times under the zero retry policy, want 1", starts)
	}
	rs := sched.Results()
	if len(rs) != 1 || !rs[0].GaveUp || rs[0].MTTR() != 0 {
		t.Fatalf("result %+v, want GaveUp with zero MTTR", rs[0])
	}
	sm := Summarize(c, rs)
	if sm.GaveUp != 1 || sm.Completed != 0 {
		t.Fatalf("summary %+v", sm)
	}
}

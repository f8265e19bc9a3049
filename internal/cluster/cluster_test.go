package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"cafteams/internal/machine"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
)

func testCluster(t *testing.T, nodes, sockets, cores int) *Cluster {
	t.Helper()
	c, err := New(machine.PaperCluster(), nodes, sockets, cores)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAllocateReleaseAccounting(t *testing.T) {
	c := testCluster(t, 4, 2, 2)
	if c.TotalFree() != 16 {
		t.Fatalf("fresh cluster has %d free cores, want 16", c.TotalFree())
	}
	locs := []topology.Loc{{Node: 0, Core: 0}, {Node: 0, Core: 1}, {Node: 2, Core: 3}}
	if err := c.Allocate(locs); err != nil {
		t.Fatal(err)
	}
	if c.FreeCores(0) != 2 || c.FreeCores(2) != 3 || c.TotalFree() != 13 {
		t.Fatalf("after allocate: free0=%d free2=%d total=%d", c.FreeCores(0), c.FreeCores(2), c.TotalFree())
	}
	// Double allocation fails atomically.
	if err := c.Allocate([]topology.Loc{{Node: 1, Core: 0}, {Node: 0, Core: 1}}); err == nil {
		t.Fatal("allocating a taken core succeeded")
	}
	if c.FreeCores(1) != 4 {
		t.Fatalf("failed allocate leaked cores on node 1: free=%d", c.FreeCores(1))
	}
	c.Release(locs, 10*sim.Microsecond)
	if c.TotalFree() != 16 {
		t.Fatalf("after release: total=%d, want 16", c.TotalFree())
	}
	// 3 cores x 10us over a 20us horizon on 16 cores.
	got := c.Utilization(20 * sim.Microsecond)
	want := float64(3*10) / float64(16*20)
	if got != want {
		t.Fatalf("utilization = %v, want %v", got, want)
	}
}

func TestTopologyFromPlacementDerivesSockets(t *testing.T) {
	c := testCluster(t, 4, 2, 2)
	topo, err := c.Topology([]topology.Loc{
		{Node: 3, Core: 3}, {Node: 1, Core: 0}, {Node: 3, Core: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 4 || topo.NumImages() != 3 {
		t.Fatalf("topology %v", topo)
	}
	if n, s := topo.SocketOf(0); n != 3 || s != 1 {
		t.Fatalf("image 0 at node %d socket %d, want 3/1", n, s)
	}
	if n, s := topo.SocketOf(2); n != 3 || s != 0 {
		t.Fatalf("image 2 at node %d socket %d, want 3/0", n, s)
	}
}

func freshState(c *Cluster) *State {
	st := &State{CoresPerNode: c.CoresPerNode(), Free: make([][]int, c.Nodes()), TenantNodes: map[int][]int{}}
	for n := 0; n < c.Nodes(); n++ {
		st.Free[n] = c.FreeCoreIDs(n)
	}
	return st
}

func nodesOf(locs []topology.Loc) []int {
	seen := map[int]bool{}
	for _, l := range locs {
		seen[l.Node] = true
	}
	var out []int
	for n := 0; n < 64; n++ {
		if seen[n] {
			out = append(out, n)
		}
	}
	return out
}

func TestPackedFillsLowNodesFirst(t *testing.T) {
	c := testCluster(t, 4, 2, 2)
	locs, ok := Packed().Place(freshState(c), &Job{Images: 6})
	if !ok {
		t.Fatal("packed failed on an empty cluster")
	}
	if got := nodesOf(locs); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("packed used nodes %v, want [0 1]", got)
	}
}

func TestSpreadUsesDistinctNodes(t *testing.T) {
	c := testCluster(t, 4, 2, 2)
	locs, ok := Spread().Place(freshState(c), &Job{Images: 4})
	if !ok {
		t.Fatal("spread failed on an empty cluster")
	}
	if got := nodesOf(locs); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("spread used nodes %v, want one image per node", got)
	}
}

func TestPoliciesQueueWhenFull(t *testing.T) {
	c := testCluster(t, 2, 1, 2)
	rng := rand.New(rand.NewSource(1))
	for _, p := range []Policy{Packed(), Spread(), KChoices(2, rng), Quota(Packed(), 1)} {
		if _, ok := p.Place(freshState(c), &Job{Images: 5}); ok {
			t.Errorf("%s placed a 5-image job on a 4-core machine", p.Name())
		}
	}
}

func TestKChoicesPrefersIdleNodesAndIsSeeded(t *testing.T) {
	c := testCluster(t, 4, 2, 2)
	// Occupy node 0 partially: nodes 1..3 are fully idle.
	if err := c.Allocate([]topology.Loc{{Node: 0, Core: 0}}); err != nil {
		t.Fatal(err)
	}
	p := KChoices(2, rand.New(rand.NewSource(7))).(*kChoices)
	locs, ok := p.Place(freshState(c), &Job{Images: 8})
	if !ok {
		t.Fatal("kchoices failed with 15 free cores")
	}
	for _, l := range locs {
		if l.Node == 0 {
			t.Fatalf("kchoices placed on busy node 0 while idle nodes remained: %v", locs)
		}
	}
	idle, sampled := p.Counters()
	if idle != 8 || sampled != 0 {
		t.Fatalf("counters idle=%d sampled=%d, want 8/0", idle, sampled)
	}

	// Same seed, same state => identical placement (including the sampled
	// path once no node is fully idle).
	run := func(seed int64) []topology.Loc {
		cc := testCluster(t, 4, 2, 2)
		for n := 0; n < 4; n++ {
			if err := cc.Allocate([]topology.Loc{{Node: n, Core: 0}}); err != nil {
				t.Fatal(err)
			}
		}
		locs, ok := KChoices(3, rand.New(rand.NewSource(seed))).Place(freshState(cc), &Job{Images: 6})
		if !ok {
			t.Fatal("kchoices failed")
		}
		return locs
	}
	if !reflect.DeepEqual(run(42), run(42)) {
		t.Fatal("kchoices placement not deterministic under a fixed seed")
	}
}

func TestQuotaCapsTenantNodes(t *testing.T) {
	c := testCluster(t, 4, 2, 2)
	p := Quota(Spread(), 2)
	st := freshState(c)
	st.TenantNodes[0] = []int{1} // tenant 0 already runs on node 1
	locs, ok := p.Place(st, &Job{Tenant: 0, Images: 6})
	if !ok {
		t.Fatal("quota(2) could not place 6 images with 2 allowed nodes x 4 cores")
	}
	used := nodesOf(locs)
	if len(used) > 2 {
		t.Fatalf("quota(2) spanned nodes %v", used)
	}
	// 9 images cannot fit inside 2 nodes x 4 cores: must queue.
	if _, ok := p.Place(freshState(c), &Job{Tenant: 0, Images: 9}); ok {
		t.Fatal("quota(2) placed 9 images across >2 nodes")
	}
}

func TestLoadGenDeterministicAndShaped(t *testing.T) {
	gen := func(seed int64) []Job {
		lg, err := NewLoadGen(rand.New(rand.NewSource(seed)), DefaultProfiles(), 50*sim.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		return lg.Jobs(64)
	}
	a, b := gen(5), gen(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different job streams")
	}
	if reflect.DeepEqual(a, gen(6)) {
		t.Fatal("different seeds produced identical job streams")
	}
	prev := sim.Time(0)
	profiles := DefaultProfiles()
	for _, j := range a {
		if j.Arrival < prev {
			t.Fatalf("arrivals not monotonic: %v after %d", j, prev)
		}
		prev = j.Arrival
		p := profiles[j.Tenant]
		if j.Images < p.Images.Min || j.Images > p.Images.Max {
			t.Fatalf("%v outside images range %+v", j, p.Images)
		}
		if j.Elems < p.Elems.Min || j.Elems > p.Elems.Max {
			t.Fatalf("%v outside elems range %+v", j, p.Elems)
		}
		inMix := false
		for _, kw := range p.Mix {
			inMix = inMix || kw.Kind == j.Kind
		}
		if !inMix {
			t.Fatalf("%v runs a kind outside tenant %s's mix", j, p.Name)
		}
	}
}

// TestSchedulerLifecycle drives arrivals, queueing and completions through
// the simulation with a stub workload that just holds its cores.
func TestSchedulerLifecycle(t *testing.T) {
	c := testCluster(t, 2, 1, 2) // 4 cores
	const runFor = 30 * sim.Microsecond
	var started []int
	sched := NewScheduler(c, Packed(), func(job *Job, topo *topology.Topology, done func(JobStats)) JobHandle {
		started = append(started, job.ID)
		if topo.NumImages() != job.Images {
			t.Errorf("%v got topology with %d images", job, topo.NumImages())
		}
		c.Env().After(runFor, func() { done(JobStats{}) })
		return nil
	})
	jobs := []Job{
		{ID: 0, Images: 3, Arrival: 0},
		{ID: 1, Images: 2, Arrival: 1 * sim.Microsecond}, // must queue: only 1 core free
		{ID: 2, Images: 1, Arrival: 2 * sim.Microsecond}, // backfills into the last core
	}
	sched.Submit(jobs)
	if err := c.Env().Run(0); err != nil {
		t.Fatal(err)
	}
	if sched.Unfinished() != 0 {
		t.Fatalf("%d jobs unfinished", sched.Unfinished())
	}
	if !reflect.DeepEqual(started, []int{0, 2, 1}) {
		t.Fatalf("start order %v, want [0 2 1] (job 1 queued, job 2 backfilled)", started)
	}
	rs := sched.Results()
	if len(rs) != 3 {
		t.Fatalf("%d results", len(rs))
	}
	if rs[0].Wait() != 0 || rs[2].Wait() != 0 {
		t.Fatalf("jobs 0/2 should start immediately: waits %d, %d", rs[0].Wait(), rs[2].Wait())
	}
	if rs[1].Wait() != runFor-1*sim.Microsecond {
		t.Fatalf("job 1 waited %d, want %d", rs[1].Wait(), runFor-1*sim.Microsecond)
	}
	if c.TotalFree() != 4 {
		t.Fatalf("cores leaked: %d free", c.TotalFree())
	}
	sm := Summarize(c, rs)
	if sm.Jobs != 3 || sm.Makespan != rs[1].End {
		t.Fatalf("summary %+v", sm)
	}
	if sm.Utilization <= 0 || sm.Utilization > 1 {
		t.Fatalf("utilization %v out of range", sm.Utilization)
	}
}

// TestPoliciesLeaveStateUnchanged: a State is read-only to policies — the
// scheduler hands one snapshot to every pending job of a pass — whether the
// placement succeeds or the job must queue.
func TestPoliciesLeaveStateUnchanged(t *testing.T) {
	c := testCluster(t, 4, 2, 2)
	if err := c.Allocate([]topology.Loc{{Node: 0, Core: 0}, {Node: 2, Core: 1}}); err != nil {
		t.Fatal(err)
	}
	policies := []Policy{Packed(), Spread(), KChoices(2, rand.New(rand.NewSource(1))), Quota(Spread(), 2)}
	for _, p := range policies {
		st := freshState(c)
		st.TenantNodes[7] = []int{0}
		want := freshState(c)
		want.TenantNodes[7] = []int{0}
		for _, images := range []int{5, 14, 99} { // fits, fits exactly, must queue
			p.Place(st, &Job{Images: images, Tenant: 7})
			if !reflect.DeepEqual(st, want) {
				t.Fatalf("%s modified its State placing %d images:\n got %v\nwant %v", p.Name(), images, st, want)
			}
		}
	}
}

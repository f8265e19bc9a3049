package main

import (
	"fmt"
	"math/rand"
	"time"

	"cafteams/caf"
	"cafteams/internal/cluster"
	"cafteams/internal/machine"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// cluster-stream: the internal/cluster scheduler with caf.LaunchOn. One
// seeded job stream is replayed under four placement policies on one shared
// machine, every job re-run alone for the no-contention comparator, plus one
// replay with node crashes and retries. Hundreds of short-lived small worlds
// on one sim.Env share per-node resources: world create/tear-down churn,
// placement-policy code and contention physics, none of which the
// single-job workloads touch.

type clusterSizes struct {
	jobs                  int
	nodes, sockets, cores int
	meanGap               sim.Time
	k, quota              int
	faults                int
	faultSpan, faultMTTR  sim.Time
	retry                 cluster.RetryPolicy
}

// clusterSizesFor are clustersim's defaults at 400 jobs.
func clusterSizesFor(cfg *config) clusterSizes {
	sz := clusterSizes{jobs: 400, nodes: 8, sockets: 2, cores: 4, meanGap: 40 * sim.Microsecond,
		k: 3, quota: 3, faults: 3, faultSpan: 400 * sim.Microsecond, faultMTTR: 200 * sim.Microsecond,
		retry: cluster.RetryPolicy{Max: 3, Base: 20 * sim.Microsecond, Cap: 160 * sim.Microsecond}}
	if cfg.tiny {
		sz.jobs = 12
	}
	return sz
}

// jobBody is the SPMD body of one job: a job-sized slice of the
// repository's workloads. Image 1 times every collective episode into tm by
// kind. Every image checks every collective result against the closed form
// of its seeded inputs and sets *bad on a mismatch.
func jobBody(job cluster.Job, seed int64, tm *trace.Timings, bad *bool) func(im *caf.Image) {
	timed := func(im *caf.Image, kind string, fn func()) {
		t0 := im.Now()
		fn()
		if im.ThisImage() == 1 {
			tm.Add(kind, im.Now()-t0)
		}
	}
	// rankVal is the per-(image, iteration) integer the reductions sum.
	rankVal := func(me, it int) float64 { return inputValue(seed, job.ID, me, it, 0) }
	sumRanks := func(n, it int) float64 {
		s := 0.0
		for r := 1; r <= n; r++ {
			s += rankVal(r, it)
		}
		return s
	}
	switch job.Kind {
	case cluster.JobAllreduce:
		// Gradient-sync sweep: dense compute, then a full-payload allreduce.
		return func(im *caf.Image) {
			me, n := im.ThisImage(), im.NumImages()
			buf := make([]float64, job.Elems)
			for it := 0; it < job.Iters; it++ {
				base := rankVal(me, it)
				for i := range buf {
					buf[i] = base + float64(i%7)
				}
				im.Compute(float64(job.Elems) * 8)
				timed(im, "allreduce", func() { im.CoSum(buf) })
				want := sumRanks(n, it)
				for i, v := range buf {
					if v != want+float64(n*(i%7)) {
						*bad = true
						break
					}
				}
			}
		}
	case cluster.JobTranspose:
		// Band offsets by exclusive scan, then the personalized exchange.
		return func(im *caf.Image) {
			me, n := im.ThisImage(), im.NumImages()
			block := job.Elems/n + 1
			send := make([]float64, n*block)
			recv := make([]float64, n*block)
			for it := 0; it < job.Iters; it++ {
				for i := range send {
					send[i] = float64(me*len(send) + i + it)
				}
				off := []float64{float64(block)}
				timed(im, "scan", func() { im.CoScan(off, true) })
				if me > 1 && off[0] != float64((me-1)*block) {
					*bad = true
				}
				timed(im, "alltoall", func() { im.CoAlltoall(send, recv) })
				for s := 1; s <= n; s++ {
					for j := 0; j < block; j++ {
						if recv[(s-1)*block+j] != float64(s*len(send)+(me-1)*block+j+it) {
							*bad = true
						}
					}
				}
				im.Compute(float64(n*block) * 2)
			}
		}
	case cluster.JobHeat2D:
		// Barrier, compute, residual co_max, a small parameter broadcast.
		return func(im *caf.Image) {
			me, n := im.ThisImage(), im.NumImages()
			for it := 0; it < job.Iters; it++ {
				res := []float64{rankVal(me, it)}
				step := []float64{-1}
				if me == 1 {
					step[0] = float64(it)
				}
				timed(im, "barrier", func() { im.SyncAll() })
				im.Compute(float64(job.Elems) * 5)
				timed(im, "allreduce", func() { im.CoMax(res) })
				timed(im, "broadcast", func() { im.CoBroadcast(step, 1) })
				want := rankVal(1, it)
				for r := 2; r <= n; r++ {
					want = max(want, rankVal(r, it))
				}
				if res[0] != want || step[0] != float64(it) {
					*bad = true
				}
			}
		}
	case cluster.JobCG:
		// Matvec compute plus two scalar dot-product reductions.
		return func(im *caf.Image) {
			me, n := im.ThisImage(), im.NumImages()
			for it := 0; it < job.Iters; it++ {
				rr := []float64{rankVal(me, it)}
				pq := []float64{1}
				im.Compute(float64(job.Elems) * 4)
				timed(im, "allreduce", func() { im.CoSum(rr) })
				im.Compute(float64(job.Elems))
				timed(im, "allreduce", func() { im.CoSum(pq) })
				if rr[0] != sumRanks(n, it) || pq[0] != float64(n) {
					*bad = true
				}
			}
		}
	}
	return func(im *caf.Image) {}
}

func jobStats(tm *trace.Timings) cluster.JobStats {
	st := cluster.JobStats{Coll: map[string]cluster.CollStat{}}
	tm.Each(func(name string, cell trace.TimingCell) {
		st.Coll[name] = cluster.CollStat{NS: cell.NS, N: cell.N}
	})
	return st
}

// timedPolicy measures the host time spent inside Policy.Place, from
// outside the policy.
type timedPolicy struct {
	cluster.Policy
	ns, calls int64
}

func (t *timedPolicy) Place(s *cluster.State, job *cluster.Job) ([]topology.Loc, bool) {
	start := time.Now()
	locs, ok := t.Policy.Place(s, job)
	t.ns += time.Since(start).Nanoseconds()
	t.calls++
	return locs, ok
}

// replay is one policy's run of the job stream.
type replay struct {
	name     string // metric name of the policy
	summary  cluster.Summary
	ideal    map[string]cluster.CollStat
	nicBusy  int64
	nodes    int
	wrong    int // completed jobs whose data was wrong
	unplaced int
	// kchoices decision counters.
	foundIdle, usedChoices int
}

type nodeFault struct {
	at     sim.Time
	node   int
	repair sim.Time
}

// clusterStream holds the seeded inputs of the workload.
type clusterStream struct {
	sz     clusterSizes
	seed   int64
	model  *machine.Model
	jobs   []cluster.Job
	faults []nodeFault
}

// streamSeed draws the job mix. The mix — every job's tenant, kind and sizes
// — is the workload's shape and is the same for every run; -seed deals those
// jobs onto the arrival times in a different order (and seeds payloads, the
// k-choices sampler at seed+1 and the crash schedule at seed+2, each its own
// stream so none perturbs another — as clustersim does). The total work is
// thus the same at every seed, and host_ops_per_s and the scheduler metrics of
// two seeds are comparable.
const streamSeed = 1

// newClusterStream builds the seeded inputs.
func newClusterStream(cfg *config) (*clusterStream, error) {
	sz := clusterSizesFor(cfg)
	cs := &clusterStream{sz: sz, seed: cfg.seed, model: machine.PaperCluster()}
	lg, err := cluster.NewLoadGen(rand.New(rand.NewSource(streamSeed)), cluster.DefaultProfiles(), sz.meanGap)
	if err != nil {
		return nil, err
	}
	cs.jobs = lg.Jobs(sz.jobs)
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(cs.jobs))
	mix := append([]cluster.Job(nil), cs.jobs...)
	// Every job must fit the machine and the quota policy's node cap.
	maxImages := min(sz.nodes, sz.quota) * sz.sockets * sz.cores
	for i := range cs.jobs {
		id, arrival := cs.jobs[i].ID, cs.jobs[i].Arrival
		cs.jobs[i] = mix[order[i]]
		cs.jobs[i].ID, cs.jobs[i].Arrival = id, arrival
		cs.jobs[i].Images = min(cs.jobs[i].Images, maxImages)
	}
	rng := rand.New(rand.NewSource(cfg.seed + 2))
	for i := 0; i < sz.faults; i++ {
		at := sim.Time(1+rng.Int63n(int64(sz.faultSpan/sim.Microsecond))) * sim.Microsecond
		cs.faults = append(cs.faults, nodeFault{at: at, node: rng.Intn(sz.nodes), repair: sz.faultMTTR})
	}
	return cs, nil
}

func (cs *clusterStream) policy(name string) cluster.Policy {
	switch name {
	case "packed":
		return cluster.Packed()
	case "spread":
		return cluster.Spread()
	case "kchoices":
		return cluster.KChoices(cs.sz.k, rand.New(rand.NewSource(cs.seed+1)))
	default:
		return cluster.Quota(cluster.Packed(), cs.sz.quota)
	}
}

// run replays the stream under one policy, with the crash schedule when
// faults is set and the per-job ideal comparator otherwise.
func (cs *clusterStream) run(pname string, faults bool, p *pass, tr *tracer, repSpan int) (*replay, error) {
	sz := cs.sz
	hs := tr.hostNow()
	label := pname
	if faults {
		label += "+faults"
	}
	ws := tr.open("replay "+label, clockHost, "driver", repSpan, hs)
	defer func() { tr.end(ws, tr.hostNow()) }()

	t0 := time.Now()
	cl, err := cluster.New(cs.model, sz.nodes, sz.sockets, sz.cores)
	if err != nil {
		return nil, err
	}
	inner := cs.policy(pname)
	pol := &timedPolicy{Policy: inner}
	rp := &replay{name: pname, nodes: sz.nodes}
	var launchNS int64
	sched := cluster.NewScheduler(cl, pol, func(job *cluster.Job, topo *topology.Topology, done func(cluster.JobStats)) cluster.JobHandle {
		start := time.Now()
		tm := trace.NewTimings()
		bad := new(bool)
		h, err := caf.LaunchOn(cl, topo, caf.Config{}, fmt.Sprintf("%s/job%d", label, job.ID),
			jobBody(*job, cs.seed, tm, bad), func(rep caf.Report) {
				st := jobStats(tm)
				st.FailedImages = len(rep.Failures)
				if st.FailedImages == 0 && *bad {
					rp.wrong++
				}
				done(st)
			})
		if err != nil {
			panic(fmt.Sprintf("launching %v: %v", job, err))
		}
		launchNS += time.Since(start).Nanoseconds()
		return h
	})
	if faults {
		sched.SetRetry(sz.retry)
		for _, f := range cs.faults {
			sched.FailNode(f.at, f.node, f.repair)
		}
	}
	sched.Submit(cs.jobs)
	setupNS := time.Since(t0).Nanoseconds()
	t1 := time.Now()
	if err := cl.Env().Run(0); err != nil {
		return nil, fmt.Errorf("policy %s: %w", label, err)
	}
	runNS := time.Since(t1).Nanoseconds() - launchNS
	results := sched.Results()
	rp.summary = cluster.Summarize(cl, results)
	rp.unplaced = sched.Unfinished()
	for _, r := range cl.NICs() {
		rp.nicBusy += r.BusyTime()
	}
	if kc, ok := inner.(interface{ Counters() (int, int) }); ok {
		rp.foundIdle, rp.usedChoices = kc.Counters()
	}
	p.setupNS += setupNS + launchNS
	p.runNS += runNS
	p.eventRunNS += runNS
	p.events += cl.Env().Events()
	p.placeNS += pol.ns
	p.placed += int64(len(cs.jobs))
	p.ops += len(cs.jobs)
	p.failed += rp.summary.GaveUp + rp.wrong + rp.unplaced
	if n := rp.summary.GaveUp + rp.wrong + rp.unplaced; n > 0 {
		p.errs = append(p.errs, fmt.Sprintf("%s: %d jobs gave up, %d finished with wrong data, %d never placed",
			label, rp.summary.GaveUp, rp.wrong, rp.unplaced))
	}
	if tr != nil {
		tr.add("setup", clockHost, "driver", ws, hs, hs+setupNS)
		tr.add("run", clockHost, "driver", ws, hs+setupNS, tr.hostNow())
	}
	p.mark()
	if faults {
		return rp, nil
	}

	// The ideal comparator: every finished job re-run alone, with its exact
	// placement, on a fresh machine of the same shape.
	is := tr.open("ideal "+label, clockHost, "driver", repSpan, tr.hostNow())
	rp.ideal = map[string]cluster.CollStat{}
	for i, r := range results {
		t0 := time.Now()
		alone, err := cluster.New(cs.model, sz.nodes, sz.sockets, sz.cores)
		if err != nil {
			return nil, err
		}
		topo, err := alone.Topology(r.Locs)
		if err != nil {
			return nil, err
		}
		tm := trace.NewTimings()
		bad := new(bool)
		if _, err := caf.LaunchOn(alone, topo, caf.Config{}, "ideal", jobBody(r.Job, cs.seed, tm, bad), nil); err != nil {
			return nil, err
		}
		p.setupNS += time.Since(t0).Nanoseconds()
		t1 := time.Now()
		if err := alone.Env().Run(0); err != nil {
			return nil, err
		}
		ns := time.Since(t1).Nanoseconds()
		p.runNS += ns
		p.eventRunNS += ns
		p.events += alone.Env().Events()
		if *bad {
			p.failed++
			p.errs = append(p.errs, fmt.Sprintf("%s: ideal re-run of %v finished with wrong data", label, r.Job))
		}
		for k, c := range jobStats(tm).Coll {
			agg := rp.ideal[k]
			agg.NS += c.NS
			agg.N += c.N
			rp.ideal[k] = agg
		}
		if (i+1)%idealBatch == 0 {
			p.mark()
		}
	}
	tr.end(is, tr.hostNow())
	return rp, nil
}

// idealBatch is how many ideal re-runs make one piece of the rep's host time
// (see pass.mark): about a quarter of a second.
const idealBatch = 100

// clusterResult is the pass's workload-specific outcome.
type clusterResult struct {
	replays []*replay // the four policies, in policyNames order
	faulted *replay
}

func (cs *clusterStream) pass(tr *tracer, repSpan int) *pass {
	p := newPass()
	res := &clusterResult{}
	p.extra = res
	fail := func(err error) *pass {
		p.failed += len(cs.jobs)
		p.ops += len(cs.jobs)
		p.errs = append(p.errs, err.Error())
		return p
	}
	for _, name := range policyNames {
		rp, err := cs.recovered(name, false, p, tr, repSpan)
		if err != nil {
			return fail(err)
		}
		res.replays = append(res.replays, rp)
	}
	rp, err := cs.recovered("packed", true, p, tr, repSpan)
	if err != nil {
		return fail(err)
	}
	res.faulted = rp
	return p
}

// recovered is run with a deadlock or panic of the shared simulation turned
// into an error.
func (cs *clusterStream) recovered(name string, faults bool, p *pass, tr *tracer, repSpan int) (rp *replay, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("policy %s: panic: %v", name, r)
		}
	}()
	return cs.run(name, faults, p, tr, repSpan)
}

func clusterMetrics(p *pass, m metricSet) {
	res := p.extra.(*clusterResult)
	if len(res.replays) != len(policyNames) || res.faulted == nil {
		return
	}
	var makespans, penalties, nic []float64
	perKind := map[string][]float64{}
	for _, rp := range res.replays {
		sm := rp.summary
		ms := float64(sm.Makespan) / float64(sim.Millisecond)
		makespans = append(makespans, ms)
		m["cluster.makespan_ms."+rp.name] = ms
		m["cluster.avg_wait_us."+rp.name] = sm.AvgWait / 1e3
		for _, kind := range sm.CollKinds() {
			shared, ideal := sm.Coll[kind], rp.ideal[kind]
			if shared.PerOp() > 0 && ideal.PerOp() > 0 {
				pen := shared.PerOp() / ideal.PerOp()
				penalties = append(penalties, pen)
				perKind[kind] = append(perKind[kind], pen)
			}
		}
		if sm.Makespan > 0 {
			nic = append(nic, float64(rp.nicBusy)/(float64(sm.Makespan)*float64(rp.nodes)))
		}
		if rp.name == "kchoices" {
			m["cluster.kchoices_found_idle"] = float64(rp.foundIdle)
			m["cluster.kchoices_used_sampling"] = float64(rp.usedChoices)
		}
	}
	m["sched_makespan_ms"] = geomean(makespans)
	m["contention_penalty"] = geomean(penalties)
	m["goodput_frac"] = res.faulted.summary.Goodput
	for _, kind := range penaltyKinds {
		if xs := perKind[kind]; len(xs) > 0 {
			m["cluster.penalty."+kind] = geomean(xs)
		}
	}
	m["cluster.retries"] = float64(res.faulted.summary.Retries)
	m["cluster.wasted_core_ms"] = float64(res.faulted.summary.WastedCoreNS) / float64(sim.Millisecond)
	if p.placed > 0 {
		m["cluster.place_ns_per_job"] = float64(p.placeNS) / float64(p.placed)
	}
	s := 0.0
	for _, x := range nic {
		s += x
	}
	m["hw.nic_busy_frac"] = s / float64(len(nic))
}

func clusterGolden(p *pass) []goldenRow {
	res := p.extra.(*clusterResult)
	var rows []goldenRow
	for _, rp := range res.replays {
		sm := rp.summary
		rows = append(rows, goldenRow{"summary/" + rp.name,
			[]int64{sm.Makespan, int64(sm.AvgWait), int64(sm.Jobs), int64(rp.unplaced)}})
		for _, kind := range sm.CollKinds() {
			rows = append(rows, goldenRow{"coll/" + rp.name + "/" + kind,
				[]int64{sm.Coll[kind].NS, sm.Coll[kind].N, rp.ideal[kind].NS, rp.ideal[kind].N}})
		}
	}
	if f := res.faulted; f != nil {
		rows = append(rows, goldenRow{"faults/packed",
			[]int64{int64(f.summary.Completed), int64(f.summary.GaveUp), int64(f.summary.Retries), f.summary.WastedCoreNS}})
	}
	return rows
}

var clusterStreamW = &workload{
	name: "cluster-stream",
	why:  "a seeded 400-job stream replayed under four placement policies plus a crash-and-retry replay: world churn on one shared sim.Env, placement code, contention physics",
	prepare: func(cfg *config) func(*tracer, int) *pass {
		cs, err := newClusterStream(cfg)
		if err != nil {
			return func(*tracer, int) *pass {
				p := newPass()
				p.ops, p.failed, p.errs, p.extra = 1, 1, []string{err.Error()}, &clusterResult{}
				return p
			}
		}
		return cs.pass
	},
	metrics: func(cfg *config, p *pass, tr *tracer, m metricSet) { clusterMetrics(p, m) },
	golden:  clusterGolden,
}

// Command clustersim runs the multi-job cluster scheduler: a seeded load
// generator submits SPMD jobs (allreduce sweeps, transposes, heat2d, CG)
// from several tenants onto one shared simulated machine, a placement
// policy maps each job to cores, and every job's collectives contend on the
// per-node NIC/progress/membus resources with its neighbors'. The same job
// stream is replayed under each policy and compared against an ideal
// no-contention world (each job re-run alone on an identical machine), so
// the printed tables quantify the contention penalty per collective kind
// and per policy.
//
// Usage:
//
//	clustersim [-seed N] [-jobs N] [-machine 16x2x4] [-mean-gap-us N]
//	           [-policies packed,spread,kchoices,quota] [-k 3] [-quota 3]
//	           [-ideal=false] [-faults N]
//
// All output is deterministic for a fixed -seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"

	"cafteams/caf"
	"cafteams/internal/cluster"
	"cafteams/internal/machine"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

type options struct {
	seed      int64
	jobs      int
	machine   string
	meanGapUS int
	policies  string
	k         int
	quota     int
	ideal     bool

	// -faults scenario mode.
	faults      int
	faultSpanUS int
	faultMTTRUS int
	retryMax    int
	retryBaseUS int
	retryCapUS  int
}

func main() {
	var o options
	flag.Int64Var(&o.seed, "seed", 1, "seed for the load generator and k-choices sampling")
	flag.IntVar(&o.jobs, "jobs", 40, "number of jobs in the arrival stream")
	flag.StringVar(&o.machine, "machine", "8x2x4", "machine shape nodes[xsockets[xcores]]")
	flag.IntVar(&o.meanGapUS, "mean-gap-us", 40, "mean job interarrival gap (simulated us)")
	flag.StringVar(&o.policies, "policies", "packed,spread,kchoices,quota", "comma-separated placement policies")
	flag.IntVar(&o.k, "k", 3, "sample size for the k-choices policy")
	flag.IntVar(&o.quota, "quota", 3, "distinct-node cap per tenant for the quota policy")
	flag.BoolVar(&o.ideal, "ideal", true, "re-run every job alone on an identical machine and report the contention penalty")
	flag.IntVar(&o.faults, "faults", 0, "inject N seeded node crashes (enables the fault scenario: goodput/retry/MTTR tables)")
	flag.IntVar(&o.faultSpanUS, "fault-span-us", 400, "window (simulated us) the crash times are drawn from")
	flag.IntVar(&o.faultMTTRUS, "fault-mttr-us", 200, "node repair time (simulated us); 0 = nodes stay down")
	flag.IntVar(&o.retryMax, "retry-max", 3, "max retries per failed job")
	flag.IntVar(&o.retryBaseUS, "retry-base-us", 20, "initial retry backoff (simulated us)")
	flag.IntVar(&o.retryCapUS, "retry-cap-us", 160, "retry backoff cap (simulated us)")
	flag.Parse()
	err := checkFlags(o)
	if err == nil {
		err = runSim(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(1)
	}
}

// checkFlags refuses, naming the flag, the values that used to panic deep in
// the simulation (-fault-span-us 0 in rand.Int63n, -quota 0 in an empty
// placement, -jobs -3 in makeslice) or were silently reinterpreted (-k 0
// sampled as 1, a negative repair time or retry bound as none).
func checkFlags(o options) error {
	for _, f := range []struct {
		name     string
		v, least int
	}{
		{"-jobs", o.jobs, 1}, {"-mean-gap-us", o.meanGapUS, 1}, {"-k", o.k, 1}, {"-quota", o.quota, 1},
		{"-faults", o.faults, 0}, {"-fault-span-us", o.faultSpanUS, 1}, {"-fault-mttr-us", o.faultMTTRUS, 0},
		{"-retry-max", o.retryMax, 0}, {"-retry-base-us", o.retryBaseUS, 0}, {"-retry-cap-us", o.retryCapUS, 0},
	} {
		if f.v < f.least {
			return fmt.Errorf("%s must be at least %d, got %d", f.name, f.least, f.v)
		}
	}
	return nil
}

// policyRun is one policy's replay of the job stream.
type policyRun struct {
	name    string
	results []*cluster.JobResult
	summary cluster.Summary
	ideal   map[string]cluster.CollStat // per-kind, no-contention
	// kchoices decision counters, when applicable.
	foundIdle, usedChoices int
	unplaced               int
}

func runSim(o options, w io.Writer) error {
	nodes, sockets, cores, err := topology.ParseShape(o.machine)
	if err != nil {
		return err
	}
	model := machine.PaperCluster()
	totalCores := nodes * sockets * cores
	policies := strings.Split(o.policies, ",")

	// One job stream, shared by every policy, clamped so each job fits the
	// machine and the quota policy's per-tenant node cap.
	lg, err := cluster.NewLoadGen(rand.New(rand.NewSource(o.seed)), cluster.DefaultProfiles(),
		sim.Time(o.meanGapUS)*sim.Microsecond)
	if err != nil {
		return err
	}
	jobs := lg.Jobs(o.jobs)
	maxImages := totalCores
	if q := o.quota * sockets * cores; q < maxImages {
		maxImages = q
	}
	for i := range jobs {
		if jobs[i].Images > maxImages {
			jobs[i].Images = maxImages
		}
	}

	fmt.Fprintf(w, "clustersim: %d jobs from %d tenants on %s (%d cores), seed %d, mean gap %dus\n",
		len(jobs), len(lg.Profiles()), o.machine, totalCores, o.seed, o.meanGapUS)

	// Fault scenario: a seeded node-crash schedule, shared by every policy
	// (like the job stream), with the ideal comparator disabled — replaying
	// a failed-and-retried job "alone" is not a like-for-like baseline.
	var faults []nodeFault
	if o.faults > 0 {
		faults = genFaults(o, nodes)
		o.ideal = false
		printFaults(w, o, faults)
	}

	var runs []*policyRun
	for _, pname := range policies {
		pr, err := runPolicy(strings.TrimSpace(pname), o, model, nodes, sockets, cores, jobs, faults)
		if err != nil {
			return err
		}
		runs = append(runs, pr)
	}

	printPlacements(w, runs)
	printSummaries(w, runs)
	printCollectives(w, runs, o.ideal)
	if o.faults > 0 {
		printFaultSummaries(w, runs)
	}
	return nil
}

func makePolicy(name string, o options, rng *rand.Rand) (cluster.Policy, error) {
	switch name {
	case "packed":
		return cluster.Packed(), nil
	case "spread":
		return cluster.Spread(), nil
	case "kchoices":
		return cluster.KChoices(o.k, rng), nil
	case "quota":
		return cluster.Quota(cluster.Packed(), o.quota), nil
	default:
		return nil, fmt.Errorf("unknown policy %q (want packed, spread, kchoices or quota)", name)
	}
}

// nodeFault is one scheduled node crash of the -faults scenario.
type nodeFault struct {
	at     sim.Time
	node   int
	repair sim.Time
}

// genFaults draws the node-crash schedule from its own seeded stream
// (o.seed+2), so enabling faults never perturbs the load generator or the
// k-choices sampler.
func genFaults(o options, nodes int) []nodeFault {
	rng := rand.New(rand.NewSource(o.seed + 2))
	repair := sim.Time(o.faultMTTRUS) * sim.Microsecond
	fs := make([]nodeFault, 0, o.faults)
	for i := 0; i < o.faults; i++ {
		at := sim.Time(1+rng.Int63n(int64(o.faultSpanUS))) * sim.Microsecond
		fs = append(fs, nodeFault{at: at, node: rng.Intn(nodes), repair: repair})
	}
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].at != fs[j].at {
			return fs[i].at < fs[j].at
		}
		return fs[i].node < fs[j].node
	})
	return fs
}

func runPolicy(pname string, o options, model *machine.Model, nodes, sockets, cores int, jobs []cluster.Job, faults []nodeFault) (*policyRun, error) {
	cl, err := cluster.New(model, nodes, sockets, cores)
	if err != nil {
		return nil, err
	}
	// k-choices gets its own stream, seeded off the main seed, so adding
	// policies never perturbs the load generator.
	pol, err := makePolicy(pname, o, rand.New(rand.NewSource(o.seed+1)))
	if err != nil {
		return nil, err
	}
	sched := cluster.NewScheduler(cl, pol, func(job *cluster.Job, topo *topology.Topology, done func(cluster.JobStats)) cluster.JobHandle {
		tm := trace.NewTimings()
		h, err := caf.LaunchOn(cl, topo, caf.Config{}, fmt.Sprintf("%s/job%d", pname, job.ID),
			jobBody(*job, tm), func(rep caf.Report) {
				st := jobStats(tm)
				st.FailedImages = len(rep.Failures)
				done(st)
			})
		if err != nil {
			panic(fmt.Sprintf("clustersim: launching %v: %v", job, err))
		}
		return h
	})
	if len(faults) > 0 {
		sched.SetRetry(cluster.RetryPolicy{
			Max:  o.retryMax,
			Base: sim.Time(o.retryBaseUS) * sim.Microsecond,
			Cap:  sim.Time(o.retryCapUS) * sim.Microsecond,
		})
		for _, f := range faults {
			sched.FailNode(f.at, f.node, f.repair)
		}
	}
	sched.Submit(jobs)
	if err := cl.Env().Run(0); err != nil {
		return nil, fmt.Errorf("policy %s: %w", pname, err)
	}
	pr := &policyRun{
		name:     pol.Name(),
		results:  sched.Results(),
		unplaced: sched.Unfinished(),
	}
	pr.summary = cluster.Summarize(cl, pr.results)
	if kc, ok := pol.(interface{ Counters() (int, int) }); ok {
		pr.foundIdle, pr.usedChoices = kc.Counters()
	}
	if o.ideal {
		pr.ideal = map[string]cluster.CollStat{}
		for _, r := range pr.results {
			st, err := idealJobStats(model, nodes, sockets, cores, r)
			if err != nil {
				return nil, err
			}
			for k, cs := range st.Coll {
				agg := pr.ideal[k]
				agg.NS += cs.NS
				agg.N += cs.N
				pr.ideal[k] = agg
			}
		}
	}
	return pr, nil
}

// idealJobStats replays one finished job alone, with its exact placement,
// on a fresh machine of the same shape — the no-contention comparator world
// every policy's shared numbers are judged against.
func idealJobStats(model *machine.Model, nodes, sockets, cores int, r *cluster.JobResult) (cluster.JobStats, error) {
	cl, err := cluster.New(model, nodes, sockets, cores)
	if err != nil {
		return cluster.JobStats{}, err
	}
	topo, err := cl.Topology(r.Locs)
	if err != nil {
		return cluster.JobStats{}, err
	}
	tm := trace.NewTimings()
	if _, err := caf.LaunchOn(cl, topo, caf.Config{}, "ideal", jobBody(r.Job, tm), nil); err != nil {
		return cluster.JobStats{}, err
	}
	if err := cl.Env().Run(0); err != nil {
		return cluster.JobStats{}, err
	}
	return jobStats(tm), nil
}

func us(ns float64) float64 { return ns / 1000 }

func printPlacements(w io.Writer, runs []*policyRun) {
	for _, pr := range runs {
		fmt.Fprintf(w, "\n== placements: %s ==\n", pr.name)
		for _, r := range pr.results {
			perNode := map[int]int{}
			for _, l := range r.Locs {
				perNode[l.Node]++
			}
			nodes := r.Nodes()
			parts := make([]string, 0, len(nodes))
			for _, n := range nodes {
				parts = append(parts, fmt.Sprintf("%d:%d", n, perNode[n]))
			}
			fmt.Fprintf(w, "  %-34s wait %8.1fus  span %9.1fus  nodes %s\n",
				r.Job.String(), us(float64(r.Wait())), us(float64(r.End-r.Start)), strings.Join(parts, " "))
		}
		if pr.unplaced > 0 {
			fmt.Fprintf(w, "  UNPLACED: %d jobs never fit\n", pr.unplaced)
		}
	}
}

func printSummaries(w io.Writer, runs []*policyRun) {
	fmt.Fprintf(w, "\n== policy comparison ==\n")
	fmt.Fprintf(w, "%-16s %5s %14s %14s %14s %13s %6s\n",
		"policy", "jobs", "avg-wait(us)", "max-wait(us)", "avg-turn(us)", "makespan(ms)", "util%")
	for _, pr := range runs {
		sm := pr.summary
		fmt.Fprintf(w, "%-16s %5d %14.1f %14.1f %14.1f %13.2f %6.1f\n",
			pr.name, sm.Jobs, us(sm.AvgWait), us(float64(sm.MaxWait)), us(sm.AvgTurnaround),
			float64(sm.Makespan)/float64(sim.Millisecond), 100*sm.Utilization)
		if pr.foundIdle+pr.usedChoices > 0 {
			fmt.Fprintf(w, "%-16s        (%d placements from idle heap, %d by k-sampling)\n",
				"", pr.foundIdle, pr.usedChoices)
		}
	}
}

func printCollectives(w io.Writer, runs []*policyRun, ideal bool) {
	fmt.Fprintf(w, "\n== collective latency under contention (us/op) ==\n")
	if ideal {
		fmt.Fprintf(w, "%-12s %-16s %10s %10s %9s\n", "collective", "policy", "shared", "ideal", "penalty")
	} else {
		fmt.Fprintf(w, "%-12s %-16s %10s\n", "collective", "policy", "shared")
	}
	kinds := map[string]bool{}
	for _, pr := range runs {
		for k := range pr.summary.Coll {
			kinds[k] = true
		}
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, kind := range names {
		for _, pr := range runs {
			shared, ok := pr.summary.Coll[kind]
			if !ok {
				continue
			}
			if !ideal {
				fmt.Fprintf(w, "%-12s %-16s %10.1f\n", kind, pr.name, us(shared.PerOp()))
				continue
			}
			id := pr.ideal[kind]
			penalty := 0.0
			if id.PerOp() > 0 {
				penalty = shared.PerOp() / id.PerOp()
			}
			fmt.Fprintf(w, "%-12s %-16s %10.1f %10.1f %8.2fx\n",
				kind, pr.name, us(shared.PerOp()), us(id.PerOp()), penalty)
		}
	}
}

func printFaults(w io.Writer, o options, faults []nodeFault) {
	fmt.Fprintf(w, "\n== fault scenario: %d node crash(es), retry max %d backoff %d..%dus ==\n",
		len(faults), o.retryMax, o.retryBaseUS, o.retryCapUS)
	for _, f := range faults {
		if f.repair > 0 {
			fmt.Fprintf(w, "  t=%8.1fus  node %2d crashes, repaired after %.1fus\n",
				us(float64(f.at)), f.node, us(float64(f.repair)))
		} else {
			fmt.Fprintf(w, "  t=%8.1fus  node %2d crashes, never repaired\n", us(float64(f.at)), f.node)
		}
	}
}

func printFaultSummaries(w io.Writer, runs []*policyRun) {
	fmt.Fprintf(w, "\n== goodput under faults ==\n")
	fmt.Fprintf(w, "%-16s %9s %6s %7s %14s %12s %8s\n",
		"policy", "completed", "gaveup", "retries", "wasted(core-us)", "avg-mttr(us)", "goodput%")
	for _, pr := range runs {
		sm := pr.summary
		fmt.Fprintf(w, "%-16s %9d %6d %7d %14.1f %12.1f %8.1f\n",
			pr.name, sm.Completed, sm.GaveUp, sm.Retries,
			us(float64(sm.WastedCoreNS)), us(sm.AvgMTTR), 100*sm.Goodput)
	}
	fmt.Fprintf(w, "\n== per-job retries ==\n")
	for _, pr := range runs {
		for _, r := range pr.results {
			if r.Attempts <= 1 && !r.GaveUp {
				continue
			}
			state := "recovered"
			if r.GaveUp {
				state = "GAVE UP"
			}
			fmt.Fprintf(w, "  %-16s %-34s attempts %d  mttr %8.1fus  %s\n",
				pr.name, r.Job.String(), r.Attempts, us(float64(r.MTTR())), state)
		}
	}
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/trace"
)

// Layer probes: small fixed workloads driven through one layer's public
// functions, timed from outside. They ride along with the traced runs only.

const probeRepeats = 5

// simKernelProbes times the discrete-event kernel alone, through
// sim.NewEnv/Spawn/Sleep/Cond/Run.
func simKernelProbes(cfg *config, m metricSet) {
	procs, sleeps, rounds := 512, 64, 20000
	if cfg.tiny {
		procs, sleeps, rounds = 16, 8, 200
	}
	var churnNS, churnAllocs, condNS []float64
	for i := 0; i < probeRepeats; i++ {
		// churn: many short-lived processes sleeping in staggered patterns
		// stress the queue (push, pop, sift) and process resumes.
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		env := sim.NewEnv()
		for p := 0; p < procs; p++ {
			env.Spawn(fmt.Sprintf("churn%d", p), func(pr *sim.Proc) {
				for j := 0; j < sleeps; j++ {
					pr.Sleep(sim.Time(1 + (p+j)%7))
				}
			})
		}
		if err := env.Run(0); err != nil {
			return
		}
		ns := float64(time.Since(start).Nanoseconds())
		runtime.ReadMemStats(&ms1)
		churnNS = append(churnNS, ns/float64(env.Events()))
		churnAllocs = append(churnAllocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(env.Events()))

		// cond-pingpong: two processes hand a turn back and forth through
		// one sim.Cond: the minimal wait/wake cycle.
		start = time.Now()
		env = sim.NewEnv()
		var cond sim.Cond
		turn := 0
		for p := 0; p < 2; p++ {
			env.Spawn(fmt.Sprintf("pp%d", p), func(pr *sim.Proc) {
				for r := 0; r < rounds; r++ {
					cond.Wait(pr, "turn", func() bool { return turn == p })
					pr.Sleep(1)
					turn = 1 - p
					cond.Wake(env)
				}
			})
		}
		if err := env.Run(0); err != nil {
			return
		}
		condNS = append(condNS, float64(time.Since(start).Nanoseconds())/float64(env.Events()))
	}
	m["sim.ns_per_event.churn"] = median(churnNS)
	m["sim.allocs_per_event.churn"] = median(churnAllocs)
	m["sim.ns_per_event.cond-pingpong"] = median(condNS)
}

// pgasSimProbes times the sim transport through Image.NotifyAdd/
// WaitFlagGE/Put/Quiet, and reads the modeled cost of one put and one
// notification within a node and across nodes.
func pgasSimProbes(cfg *config, m metricSet) {
	ppRounds, foRounds := 4000, 400
	if cfg.tiny {
		ppRounds, foRounds = 50, 10
	}
	var pp, fo []float64
	for i := 0; i < probeRepeats; i++ {
		r := runPrim(primPingpong, specShape("2(2)"), ppRounds, "sim", cfg.seed)
		if r.events > 0 {
			pp = append(pp, float64(r.runNS)/float64(r.events))
		}
		r = runPrim(primFanout, specShape("8(1)"), foRounds, "sim", cfg.seed)
		if r.events > 0 {
			fo = append(fo, float64(r.runNS)/float64(r.events))
		}
	}
	m["pgas.sim.ns_per_event.pingpong"] = median(pp)
	m["pgas.sim.ns_per_event.fanout"] = median(fo)

	// Modeled constants: on 4(2), rank 1 shares rank 0's node, rank 2 does
	// not. Every image starts at simulated time 0.
	topo := specShape("4(2)")
	tp, err := topo.build()
	if err != nil {
		return
	}
	w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), tp, trace.New())
	if err != nil {
		return
	}
	var putNS, notifyNS [3]int64 // indexed by target rank
	src := make([]float64, put8kElems)
	w.Run(func(im *pgas.Image) {
		fl := pgas.NewFlags(w, "probe", 1)
		co := pgas.NewCoarray[float64](w, "probe", put8kElems)
		switch im.Rank() {
		case 0:
			for _, target := range []int{1, 2} {
				t0 := im.Now()
				pgas.Put(im, co, target, 0, src, pgas.ViaAuto)
				im.Quiet()
				putNS[target] = im.Now() - t0
			}
			// Notifications leave at a known time; the targets report
			// when they saw them.
			im.Sleep(sim.Millisecond - im.Now())
			im.NotifyAdd(fl, 1, 0, 1, pgas.ViaAuto)
			im.Sleep(sim.Millisecond)
			im.NotifyAdd(fl, 2, 0, 1, pgas.ViaAuto)
		case 1:
			im.WaitFlagGE(fl, 1, 0, 1)
			notifyNS[1] = im.Now() - sim.Millisecond
		case 2:
			im.WaitFlagGE(fl, 2, 0, 1)
			notifyNS[2] = im.Now() - 2*sim.Millisecond
		}
	})
	m["pgas.sim.put_modeled_us.8k.intra"] = float64(putNS[1]) / 1e3
	m["pgas.sim.put_modeled_us.8k.inter"] = float64(putNS[2]) / 1e3
	m["pgas.sim.notify_modeled_us.intra"] = float64(notifyNS[1]) / 1e3
	m["pgas.sim.notify_modeled_us.inter"] = float64(notifyNS[2]) / 1e3
}

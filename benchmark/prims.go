package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/trace"
)

// Transport primitives driven straight through the pgas layer, below every
// collective: they are cells of native-sweep and, on the sim backend, the
// pgas probes of the traced runs.
const (
	primPingpong = "pingpong" // ranks 0 and last exchange one notification per round
	primFanout   = "fanout"   // every image notifies every other, then waits for all
	primPut      = "put8k"    // rank 0 puts 8 KiB to the last rank, quiets, notifies; the target checks the bytes
)

const put8kElems = 1024 // 8 KiB of float64

type primResult struct {
	name    string
	shape   shape
	rounds  int
	clockNS int64 // backend clock at the end of the run
	events  int64
	setupNS int64 // host
	runNS   int64 // host
	failed  int   // rounds whose data was wrong (rounds if the world died)
	err     string
}

// perRoundNS is the backend-clock time per round.
func (r *primResult) perRoundNS() float64 { return float64(r.clockNS) / float64(r.rounds) }

func runPrim(name string, sh shape, rounds int, backend string, seed int64) (res primResult) {
	res = primResult{name: name, shape: sh, rounds: rounds}
	t0 := time.Now()
	topo, err := sh.build()
	if err != nil {
		res.failed, res.err = rounds, err.Error()
		return res
	}
	var w *pgas.World
	var env *sim.Env
	if backend == "native" {
		w = pgas.NewNativeWorld(machine.PaperCluster(), topo, trace.New())
		w.ContainPanics()
	} else {
		env = sim.NewEnv()
		if w, err = pgas.NewWorld(env, machine.PaperCluster(), topo, trace.New()); err != nil {
			res.failed, res.err = rounds, err.Error()
			return res
		}
	}
	n := topo.NumImages()
	last := n - 1
	var bad atomic.Int64
	src := make([]float64, put8kElems)
	body := func(im *pgas.Image) {
		fl := pgas.NewFlags(w, "prim:"+name, 2)
		me := im.Rank()
		switch name {
		case primPingpong:
			if me != 0 && me != last {
				return
			}
			peer := last - me
			for i := int64(1); i <= int64(rounds); i++ {
				if me == 0 {
					im.NotifyAdd(fl, peer, 0, 1, pgas.ViaAuto)
					im.WaitFlagGE(fl, me, 0, i)
				} else {
					im.WaitFlagGE(fl, me, 0, i)
					im.NotifyAdd(fl, peer, 0, 1, pgas.ViaAuto)
				}
			}
		case primFanout:
			for i := 1; i <= rounds; i++ {
				for p := 0; p < n; p++ {
					if p != me {
						im.NotifyAdd(fl, p, 0, 1, pgas.ViaAuto)
					}
				}
				im.WaitFlagGE(fl, me, 0, int64(i*(n-1)))
			}
		case primPut:
			co := pgas.NewCoarray[float64](w, "prim:put", put8kElems)
			if me != 0 && me != last {
				return
			}
			for i := int64(1); i <= int64(rounds); i++ {
				if me == 0 {
					// The payload changes every round, so a stale landing
					// region cannot pass.
					for j := range src {
						src[j] = float64(seed + i + int64(j))
					}
					pgas.Put(im, co, last, 0, src, pgas.ViaAuto)
					im.Quiet()
					im.NotifyAdd(fl, last, 0, 1, pgas.ViaAuto)
					im.WaitFlagGE(fl, 0, 1, i) // the target is done reading
				} else {
					im.WaitFlagGE(fl, me, 0, i)
					got := pgas.Local(co, im)
					for j := range got {
						if got[j] != float64(seed+i+int64(j)) {
							bad.Add(1)
							break
						}
					}
					im.NotifyAdd(fl, 0, 1, 1, pgas.ViaAuto)
				}
			}
		default:
			panic("unknown primitive " + name)
		}
	}
	res.setupNS = time.Since(t0).Nanoseconds()
	t1 := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.err = fmt.Sprint(r)
			}
		}()
		res.clockNS = w.Run(body)
	}()
	res.runNS = time.Since(t1).Nanoseconds()
	if env != nil {
		res.events = env.Events()
	}
	if res.err == "" && len(w.Failures()) > 0 {
		res.err = fmt.Sprintf("%d image(s) failed", len(w.Failures()))
	}
	res.failed = int(bad.Load())
	if res.err != "" {
		res.failed = rounds
	}
	return res
}

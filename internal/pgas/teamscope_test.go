package pgas_test

import (
	"runtime"
	"testing"
	"weak"

	"cafteams/internal/coll"
	"cafteams/internal/core"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// TestDroppedTeamIsCollected: what is scoped to a team — its collective flags,
// scratch boxes and member tables, and the teams it forms until their members
// have attached — lives in the team's registry, so a program that forms teams
// in a loop holds a constant number of entries, in the world and in the
// parent, and a team it dropped is garbage. Each episode forms parity teams on
// 64(8), runs a tdlb barrier and a 2level allreduce on the image's subteam,
// then a barrier on the parent.
func TestDroppedTeamIsCollected(t *testing.T) {
	const episodes = 100
	for _, backend := range []string{"sim", "native"} {
		t.Run(backend, func(t *testing.T) {
			topo, err := topology.ParseSpec("64(8)")
			if err != nil {
				t.Fatal(err)
			}
			var w *pgas.World
			if backend == "native" {
				w = pgas.NewNativeWorld(machine.PaperCluster(), topo, trace.New())
			} else if w, err = pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New()); err != nil {
				t.Fatal(err)
			}
			var worldLen, parentLen [2]int // after the first episode and the last
			var first weak.Pointer[team.Team]
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				buf := make([]float64, 16)
				for ep := range episodes {
					sub := core.Form(v, int64(v.Rank%2)+1, -1)
					core.RunBarrier("tdlb", sub)
					core.RunAllreduce("2level", sub, buf, coll.Sum)
					core.RunBarrier("tdlb", v)
					// After the parent's barrier every member has attached to
					// its subteam, and none can begin the next episode's form
					// before image 0 contributes to it.
					if im.Rank() == 0 && (ep == 0 || ep == episodes-1) {
						i := min(ep, 1)
						worldLen[i], parentLen[i] = pgas.WorldRegistry(w).Len(), v.T.Registry().Len()
						if ep == 0 {
							first = weak.Make(sub.T)
						}
					}
				}
			})
			if worldLen[1] != worldLen[0] || parentLen[1] != parentLen[0] {
				t.Errorf("registry entries after episode 1 and %d: world %d → %d, parent team %d → %d; want no growth",
					episodes, worldLen[0], worldLen[1], parentLen[0], parentLen[1])
			}
			runtime.GC()
			if first.Value() != nil {
				t.Error("the first episode's subteam is still reachable after the run")
			}
			runtime.KeepAlive(w)
		})
	}
}

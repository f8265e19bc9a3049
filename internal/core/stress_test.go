package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
	"cafteams/internal/topology"
)

// TestOverlappingTeamCollectivesStress runs several sibling teams through
// independent random sequences of hierarchy-aware collectives with random
// skew. It checks (a) values are always correct, (b) teams never interfere
// (a fast team must not be delayed by orders of magnitude by a slow one),
// and (c) no deadlocks across many random schedules.
func TestOverlappingTeamCollectivesStress(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nodes := rng.Intn(4) + 2
			perNode := []int{1, 2, 4, 8}[rng.Intn(4)]
			k := rng.Intn(3) + 2 // number of teams
			spec := fmt.Sprintf("%d(%d)", nodes*perNode, nodes)
			w := newWorld(t, spec)
			n := w.NumImages()
			if k > n {
				k = n
			}
			steps := rng.Intn(6) + 3
			// Pre-draw the program so every image executes the same
			// sequence for its team.
			type step struct {
				kind  int
				root  int
				elems int
				skew  []int64
			}
			progs := make([][]step, k)
			for tm := 0; tm < k; tm++ {
				for s := 0; s < steps; s++ {
					st := step{
						kind:  rng.Intn(4),
						root:  rng.Intn(n),
						elems: rng.Intn(40) + 1,
						skew:  make([]int64, n),
					}
					for i := range st.skew {
						st.skew[i] = int64(rng.Intn(20000))
					}
					progs[tm] = append(progs[tm], st)
				}
			}
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				mine := im.Rank() % k
				sub := Form(v, int64(mine)+1, -1)
				sz := sub.NumImages()
				for _, st := range progs[mine] {
					im.Sleep(sim.Time(st.skew[im.Rank()]))
					switch st.kind {
					case 0:
						BarrierTDLB(sub)
					case 1:
						BarrierTDLB3(sub)
					case 2:
						buf := make([]float64, st.elems)
						for i := range buf {
							buf[i] = float64(sub.Rank + 1)
						}
						AllreduceTwoLevel(sub, buf, coll.Sum)
						want := float64(sz*(sz+1)) / 2
						for i := range buf {
							if math.Abs(buf[i]-want) > 1e-9 {
								t.Errorf("team %d: sum = %v, want %v", mine, buf[i], want)
								return
							}
						}
					case 3:
						root := st.root % sz
						buf := make([]float64, st.elems)
						if sub.Rank == root {
							for i := range buf {
								buf[i] = float64(root*1000 + i)
							}
						}
						BcastTwoLevel(sub, root, buf)
						for i := range buf {
							if buf[i] != float64(root*1000+i) {
								t.Errorf("team %d: bcast elem %d = %v", mine, i, buf[i])
								return
							}
						}
					}
				}
			})
		})
	}
}

// TestTeamIndependenceTiming: a sleeping team must not block a running one.
func TestTeamIndependenceTiming(t *testing.T) {
	w := newWorld(t, "32(4)")
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		mine := im.Rank() % 2
		sub := Form(v, int64(mine)+1, -1)
		if mine == 0 {
			im.Sleep(10 * sim.Millisecond)
		}
		start := im.Now()
		for i := 0; i < 5; i++ {
			BarrierTDLB(sub)
			buf := []float64{1}
			AllreduceTwoLevel(sub, buf, coll.Sum)
		}
		if mine == 1 && im.Now()-start > 5*sim.Millisecond {
			t.Errorf("fast team delayed %d ns by the sleeping team", im.Now()-start)
		}
	})
}

// TestAdversarialPlacementHierarchy: hierarchy detection must work when
// team members are scattered non-contiguously across nodes (cyclic
// placement), and collectives must stay correct.
func TestAdversarialPlacementHierarchy(t *testing.T) {
	// Cyclic: consecutive ranks land on different nodes.
	w := confScenario{nodes: 4, perNode: 4, place: topology.PlaceCyclic}.world(t)
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		tm := v.T
		if tm.NumNodeGroups() != 4 {
			t.Fatalf("node groups = %d, want 4", tm.NumNodeGroups())
		}
		// Each intranode set holds ranks {i, i+4, i+8, i+12}.
		g := tm.NodeGroup(tm.GroupOf(v.Rank))
		if len(g) != 4 {
			t.Fatalf("group size = %d", len(g))
		}
		BarrierTDLB(v)
		buf := []float64{float64(v.Rank + 1)}
		AllreduceTwoLevel(v, buf, coll.Sum)
		if buf[0] != 136 {
			t.Fatalf("sum = %v, want 136", buf[0])
		}
	})
}

package core

// Conformance of the leaders' stages that change form with the number of node
// leaders (logDepthLeaders): the randomized sweep draws 1–5 nodes, so these
// fixed many-node shapes are what runs ScanTwoLevel's pairwise-exchange scan
// and AllgatherTwoLevel's Bruck stage — odd and even leader counts either side
// of a power of two, one node shorter than the rest, and one cyclic shape whose
// scan must take the flat fallback while its allgather packs node blocks that
// are scattered over the ranks. Blocking, split-phase, on the native backend,
// and with a leader killed under way.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/topology"
)

// manyLeaderScenarios builds the fixed shapes: nodes × perNode images in
// blocks or cyclically, node short (when ≥ 0) hosting one image only.
func manyLeaderScenarios(t *testing.T) []confScenario {
	t.Helper()
	var scs []confScenario
	for i, c := range []struct {
		nodes, perNode, short int
		place                 topology.Placement
	}{
		{17, 1, -1, topology.PlaceBlock},
		{24, 3, 10, topology.PlaceBlock},
		{33, 2, -1, topology.PlaceBlock},
		{40, 1, -1, topology.PlaceBlock},
		{18, 2, -1, topology.PlaceCyclic},
	} {
		var locs []topology.Loc
		for node := 0; node < c.nodes; node++ {
			for core := 0; core < c.perNode && (node != c.short || core == 0); core++ {
				locs = append(locs, topology.Loc{Node: node, Socket: core / 2, Core: core})
			}
		}
		if c.place == topology.PlaceCyclic {
			// Rank r on node r mod nodes: the same cores, dealt round-robin.
			dealt := make([]topology.Loc, 0, len(locs))
			for core := 0; core < c.perNode; core++ {
				for node := 0; node < c.nodes; node++ {
					dealt = append(dealt, locs[node*c.perNode+core])
				}
			}
			locs = dealt
		}
		topo, err := topology.NewCustom(c.nodes, 2, 2, locs)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%dx%d-%s", c.nodes, c.perNode, c.place)
		if c.short >= 0 {
			label += "-short"
		}
		scs = append(scs, confScenario{label: label, topo: topo, elems: 3, seed: 20261003 + int64(i)*211})
	}
	return scs
}

// leaderStageCells are the cells whose leaders' stage has two forms.
var leaderStageCells = []struct {
	k    Kind
	name string
}{{KindScan, "2level"}, {KindAllgather, "2level"}}

// ranState reports whether some image of w created the algorithm state named
// alg on the initial team: which form of a stage ran.
func ranState(w *pgas.World, alg string) bool {
	found := true
	pgas.LookupOrCreate(w, "coll:"+alg+":team1", func() interface{} { found = false; return nil })
	return found
}

// TestManyLeadersTakeTheLogDepthStage: every shape has at least
// logDepthLeaders node leaders, so a rank-contiguous one scans its node totals
// by exchange, the cyclic one falls back to the flat scan, and nobody walks the
// chain's slots or the ring's steps.
func TestManyLeadersTakeTheLogDepthStage(t *testing.T) {
	for _, sc := range manyLeaderScenarios(t) {
		w := sc.world(t)
		leaders := 0
		w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			if v.Rank == 0 {
				leaders = v.T.NumNodeGroups()
			}
			RunScan("2level", v, []float64{1}, coll.Sum, false)
			RunAllgather("2level", v, []float64{1}, make([]float64, v.T.Size()))
		})
		if leaders < logDepthLeaders {
			t.Fatalf("%s: %d leaders, the log-depth stages start at %d", sc, leaders, logDepthLeaders)
		}
		_, contiguous := team.Initial(w, w.Image(0)).T.RankChain()
		if exchange, flat := ranState(w, "core.scan2lead.incl.xscan.sum.float64"), ranState(w, "scan.rd.sum.incl.float64"); exchange != contiguous || flat == contiguous {
			t.Errorf("%s (rank-contiguous %v): scan/2level ran the exchange stage %v, the flat fallback %v", sc, contiguous, exchange, flat)
		}
	}
}

// TestConformanceManyLeaders runs the two cells over the many-node shapes:
// blocking and split-phase on the simulator, blocking on the native backend,
// each image's every episode bitwise against the serial reference.
func TestConformanceManyLeaders(t *testing.T) {
	scs := manyLeaderScenarios(t)
	if testing.Short() {
		scs = scs[1:3]
	}
	for _, base := range scs {
		for _, mode := range []struct {
			name       string
			backend    string
			splitPhase bool
		}{{"sim", "sim", false}, {"splitphase", "sim", true}, {"native", "native", false}} {
			sc := base
			sc.backend, sc.splitPhase = mode.backend, mode.splitPhase
			for _, c := range leaderStageCells {
				t.Run(fmt.Sprintf("%s/%s/%s/%s", base, mode.name, c.k, c.name), func(t *testing.T) {
					runConfCell(t, sc, c.k, c.name)
				})
			}
		}
	}
}

// TestManyLeadersSurviveALeaderKill is the liveness contract of the two cells
// with a node leader lost under way, on both backends: the victim takes two
// episodes and naps, the kill finds it in one or the other; every survivor
// either completes an episode — then bitwise right, a scan's low ranks need
// nothing of the victim — or leaves it with a failed-image or timeout
// condition, and the world ends (own deadline and goroutine dump, as the pgas
// tests' runOrHang does).
func TestManyLeadersSurviveALeaderKill(t *testing.T) {
	base := manyLeaderScenarios(t)[1] // 24 leaders, one short node
	for _, backend := range confBackends {
		for _, c := range leaderStageCells {
			sc := base
			sc.backend = backend
			t.Run(fmt.Sprintf("%s/%s/%s", backend, c.k, c.name), func(t *testing.T) {
				w := sc.world(t)
				victim := team.Initial(w, w.Image(0)).T.Leaders()[12] // mid-chain; global = team rank here
				if err := w.InjectFaults(&pgas.FaultPlan{Events: []pgas.FaultEvent{
					{At: 2 * pgas.Millisecond, Kind: pgas.FaultKillImage, Image: victim},
				}}); err != nil {
					t.Fatal(err)
				}
				var failed atomic.Int64 // survivors that left an episode on the failure
				done := make(chan struct{})
				go func() {
					defer close(done)
					w.Run(func(im *pgas.Image) {
						v := team.Initial(w, im)
						if im.Rank() == victim {
							short := sc
							short.episodes = 2
							runConfEpisodes(t, short, c.k, c.name, true, v)
							for range 1000 { // in slices: a native nap cannot be interrupted
								im.Sleep(pgas.Millisecond)
							}
							t.Errorf("victim survived")
							return
						}
						defer func() {
							if r := recover(); r != nil {
								if pgas.AsFailedImageError(r) == nil {
									panic(r)
								}
								failed.Add(1)
							}
						}()
						runConfEpisodes(t, sc, c.k, c.name, true, v)
					})
				}()
				select {
				case <-done:
				//caflint:allow wallclock -- a real deadline for the native backend's real goroutines
				case <-time.After(30 * time.Second):
					buf := make([]byte, 1<<16)
					t.Fatalf("world still running: a survivor hangs\n%s", buf[:runtime.Stack(buf, true)])
				}
				if failed.Load() == 0 {
					t.Errorf("no survivor saw the failure: five episodes cannot complete without the victim")
				}
				if f := w.Failures(); len(f) != 1 || f[0].Rank != victim || f[0].Cause != pgas.CauseKilled {
					t.Errorf("failures %+v: only the killed leader may be reported", f)
				}
			})
		}
	}
}

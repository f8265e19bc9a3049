package core

// Conformance of the leaders' stages of ScanTwoLevel, AllgatherTwoLevel,
// ScatterTwoLevel and GatherTwoLevel on fixed shapes the randomized sweep (1–5
// nodes) does not draw. The many-node shapes have at least logDepthLeaders
// node leaders, so their scan runs the pairwise-exchange stage — odd and even
// leader counts either side of a power of two, one node shorter than the rest,
// and two cyclic shapes whose scan must take the flat fallback while their
// allgather, scatter and gather pack node blocks that are scattered over the
// ranks; from treeLeaders up (all but 17x1 and 18x2) the rooted kinds run
// their binomial tree over node blocks. The few-leader shapes are where
// coll.SubgroupAllgatherBruck replaced AllgatherTwoLevel's ring: every count
// from 2 to 16 that rounds differently (3, 5, 6, 7, 11, 13 beside the powers of
// two), uneven node groups, one image per node. One shape of each set deals its
// blocks onto the nodes in reverse, so the leaders' node ids fall as their
// ranks rise; every registered algorithm runs on those two. Blocking,
// split-phase, on the native backend, and with a leader killed under way.

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/topology"
)

// leaderShape is nodes × perNode images in blocks or cyclically, node short
// (when ≥ 0) hosting one image only; desc deals the blocks onto the nodes in
// reverse, rank block b on node nodes−1−b, so the leaders' node ids fall as
// their ranks rise.
type leaderShape struct {
	nodes, perNode, short int
	place                 topology.Placement
	desc                  bool
}

var manyLeaderShapes = []leaderShape{
	{17, 1, -1, topology.PlaceBlock, false},
	{24, 3, 10, topology.PlaceBlock, false},
	{33, 2, -1, topology.PlaceBlock, false},
	{40, 1, -1, topology.PlaceBlock, false},
	{18, 2, -1, topology.PlaceCyclic, false},
	{21, 2, -1, topology.PlaceCyclic, false},
	{20, 2, -1, topology.PlaceBlock, true},
}

var fewLeaderShapes = []leaderShape{
	{2, 4, -1, topology.PlaceBlock, false},
	{3, 3, 1, topology.PlaceBlock, false},
	{4, 4, -1, topology.PlaceBlock, false},
	{5, 1, -1, topology.PlaceBlock, false},
	{6, 2, -1, topology.PlaceCyclic, false},
	{7, 3, 3, topology.PlaceBlock, false},
	{8, 2, -1, topology.PlaceBlock, false},
	{11, 1, -1, topology.PlaceBlock, false},
	{13, 2, 5, topology.PlaceBlock, false},
	{16, 2, 15, topology.PlaceBlock, false},
	{6, 3, 2, topology.PlaceBlock, true},
}

func manyLeaderScenarios(t *testing.T) []confScenario { return leaderScenarios(t, manyLeaderShapes) }
func fewLeaderScenarios(t *testing.T) []confScenario  { return leaderScenarios(t, fewLeaderShapes) }

// leaderScenarios builds the fixed shapes.
func leaderScenarios(t *testing.T, shapes []leaderShape) []confScenario {
	t.Helper()
	var scs []confScenario
	for i, c := range shapes {
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
		if c.desc {
			for i := range locs {
				locs[i].Node = c.nodes - 1 - locs[i].Node
			}
		}
		topo, err := topology.NewCustom(c.nodes, 2, 2, locs)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%dx%d-%s", c.nodes, c.perNode, c.place)
		if c.short >= 0 {
			label += "-short"
		}
		if c.desc {
			label += "-desc"
		}
		scs = append(scs, confScenario{label: label, topo: topo, elems: 3, seed: 20261003 + int64(i)*211})
	}
	return scs
}

type leaderCell struct {
	k    Kind
	name string
}

// leaderStageCells run on the many-leader shapes: the two-level cells with a
// leaders' stage that walked the nodes before it was log-depth. allgatherCells
// run on the few-leader shapes: the two callers of coll.SubgroupAllgatherBruck.
var (
	leaderStageCells = []leaderCell{{KindScan, "2level"}, {KindAllgather, "2level"}, {KindScatter, "2level"}, {KindGather, "2level"}}
	allgatherCells   = []leaderCell{{KindAllgather, "2level"}, {KindAllgather, "bruck"}}
)

// ranState reports whether some image of w created the state of algorithm
// instance alg on the initial team: which form of a stage ran.
func ranState(w *pgas.World, alg coll.Alg) bool {
	found := true
	team.Initial(w, w.Image(0)).T.Registry().LookupOrCreate(alg, func() any { found = false; return nil })
	return found
}

// TestManyLeadersTakeTheLogDepthStage pins the form of both stages on every
// shape. Scan: from logDepthLeaders node leaders up a rank-contiguous shape
// scans its node totals by exchange, below it along the chain, and a cyclic one
// falls back to the flat scan. Allgather: N leaders run Bruck's ceil(log2 N)
// rounds at every N — N·ceil(log2 N) inter-node puts per episode (8 on four
// nodes, where the ring took 12) and 2+ceil(log2 N) flag slots per image, so a
// leader's flag row does not grow with the node count. Scatter and gather: from
// treeLeaders node leaders up (at these small node blocks) the binomial tree
// over node blocks, below it the linear stage; with one image per node each
// form sends exactly what its flat algorithm (binomial, linear) sends, in
// exactly its time, and nothing over shared memory.
func TestManyLeadersTakeTheLogDepthStage(t *testing.T) {
	many := manyLeaderScenarios(t)
	for i, sc := range append(many, fewLeaderScenarios(t)...) {
		w := sc.world(t)
		w.Run(func(im *pgas.Image) {
			RunScan("2level", team.Initial(w, im), []float64{1}, coll.Sum, false)
		})
		tm := team.Initial(w, w.Image(0)).T
		leaders := tm.NumNodeGroups()
		if (i < len(many)) != (leaders >= logDepthLeaders) {
			t.Fatalf("%s: %d leaders, the log-depth scan stage starts at %d", sc, leaders, logDepthLeaders)
		}
		contiguous := tm.Contiguous()
		wantExchange := contiguous && leaders >= logDepthLeaders
		if exchange, flat := ranState(w, coll.Alg{"core.scan2lead", "incl", "xscan", "sum", "float64"}), ranState(w, coll.Alg{"scan.rd", "sum", "incl", "float64"}); exchange != wantExchange || flat == contiguous {
			t.Errorf("%s (rank-contiguous %v, %d leaders): scan/2level ran the exchange stage %v, the flat fallback %v", sc, contiguous, leaders, exchange, flat)
		}

		const episodes = 2
		w = sc.world(t)
		w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			for range episodes {
				RunAllgather("2level", v, []float64{1}, make([]float64, v.T.Size()))
			}
		})
		sn, rounds := w.Stats().Snapshot(), coll.Rounds(leaders)
		if want := int64(episodes * leaders * rounds * 2); sn.InterMsgs != want { // a put and its notify
			t.Errorf("%s: allgather/2level sent %d inter-node messages in %d episodes, want a put and a notify by each of %d leaders in each of %d rounds", sc, sn.InterMsgs, episodes, leaders, rounds)
		}
		if want := int64(tm.Size() * 8 * (2 + rounds)); sn.FlagBytes > want {
			t.Errorf("%s: allgather/2level materialised %d B of flags > %d B (2+%d slots on %d images)", sc, sn.FlagBytes, want, rounds, tm.Size())
		}

		wantTree := leaders >= treeLeaders
		for _, c := range []struct {
			k     Kind
			state string
		}{{KindScatter, "sc2"}, {KindGather, "ga2"}} {
			rooted := sc
			rooted.episodes = 4
			rooted.rootOf = func(ep, n int) int { return ep * (n/4 + 1) % n }
			w = rooted.world(t)
			end := w.Run(func(im *pgas.Image) { runConfEpisodes(t, rooted, c.k, "2level", false, team.Initial(w, im)) })
			if tree, linear := ranState(w, coll.Alg{c.state, "tree", "float64"}), ranState(w, coll.Alg{c.state, "float64"}); tree != wantTree || linear == wantTree {
				t.Errorf("%s (%d leaders): %s/2level ran the tree %v, the linear stage %v", sc, leaders, c.k, tree, linear)
			}
			if tm.MaxNodeGroup() > 1 {
				continue
			}
			flatName := "linear"
			if wantTree {
				flatName = "binomial"
			}
			got := w.Stats().Snapshot()
			w = rooted.world(t)
			flatEnd := w.Run(func(im *pgas.Image) { runConfEpisodes(t, rooted, c.k, flatName, false, team.Initial(w, im)) })
			if flat := w.Stats().Snapshot(); got.InterMsgs != flat.InterMsgs || got.IntraMsgs != 0 || end != flatEnd {
				t.Errorf("%s: %s/2level sent %d inter-node and %d intra-node messages in %d ns, %s/%s %d in %d ns", sc, c.k, got.InterMsgs, got.IntraMsgs, end, c.k, flatName, flat.InterMsgs, flatEnd)
			}
		}
	}
}

// TestOneImagePerNodeAlltoallIsPairwise: with one image per node the leaders'
// pairwise exchange is the whole of alltoall/2level — no staging, nothing over
// shared memory — so it sends exactly what flat pairwise sends, in exactly its
// time, at a few leaders, at logDepthLeaders and at the benchmark's 44.
func TestOneImagePerNodeAlltoallIsPairwise(t *testing.T) {
	for _, sc := range leaderScenarios(t, []leaderShape{{5, 1, -1, topology.PlaceBlock, false}, {17, 1, -1, topology.PlaceBlock, false}, {44, 1, -1, topology.PlaceBlock, false}}) {
		sc.episodes = 3
		run := func(name string) (pgas.Time, int64, int64) {
			w := sc.world(t)
			end := w.Run(func(im *pgas.Image) { runConfEpisodes(t, sc, KindAlltoall, name, false, team.Initial(w, im)) })
			sn := w.Stats().Snapshot()
			return end, sn.InterMsgs, sn.IntraMsgs
		}
		end, inter, intra := run("2level")
		flatEnd, flatInter, _ := run("pairwise")
		if end != flatEnd || inter != flatInter || intra != 0 {
			t.Errorf("%s: alltoall/2level sent %d inter-node and %d intra-node messages in %d ns, alltoall/pairwise %d in %d ns", sc, inter, intra, end, flatInter, flatEnd)
		}
	}
}

// TestConformanceManyLeaders runs each set of cells over its shapes, and every
// registered algorithm over the descending ones: blocking and split-phase on
// the simulator, blocking on the native backend, each image's every episode
// bitwise against the serial reference.
func TestConformanceManyLeaders(t *testing.T) {
	many, few := manyLeaderScenarios(t), fewLeaderScenarios(t)
	if testing.Short() {
		many, few = many[1:3], few[4:6]
	}
	for _, set := range []struct {
		scs   []confScenario
		cells []leaderCell
	}{{many, leaderStageCells}, {few, allgatherCells}} {
		for _, base := range set.scs {
			cells := set.cells
			if strings.HasSuffix(base.label, "-desc") {
				cells = nil
				for _, k := range Kinds() {
					for _, name := range Algorithms(k) {
						cells = append(cells, leaderCell{k, name})
					}
				}
			}
			for _, mode := range []struct {
				name       string
				backend    string
				splitPhase bool
			}{{"sim", "sim", false}, {"splitphase", "sim", true}, {"native", "native", false}} {
				sc := base
				sc.backend, sc.splitPhase = mode.backend, mode.splitPhase
				for _, c := range cells {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", base, mode.name, c.k, c.name), func(t *testing.T) {
						runConfCell(t, sc, c.k, c.name)
					})
				}
			}
		}
	}
}

// TestManyLeadersSurviveALeaderKill is the liveness contract of the cells with
// a node leader lost under way, on both backends: the victim takes two
// episodes and naps, the kill finds it in one or the other; every survivor
// either completes an episode — then bitwise right, a scan's low ranks need
// nothing of the victim — or leaves it with a failed-image or timeout
// condition. The survivors then form their team — one leader fewer, or the
// victim's node under a new one — and rerun the cell there, bitwise right
// again, and the world ends (own deadline and goroutine dump, as the pgas
// tests' runOrHang does).
func TestManyLeadersSurviveALeaderKill(t *testing.T) {
	few := fewLeaderScenarios(t)
	for i, kc := range []struct {
		sc     confScenario
		victim int // position among the leaders
		cells  []leaderCell
	}{
		{manyLeaderScenarios(t)[1], 12, leaderStageCells}, // 24 leaders, one short node; mid-chain
		{few[5], 3, allgatherCells},                       // 7 leaders; the short node's only image
		{few[8], 4, allgatherCells},                       // 13 leaders; its node gets a new leader
		{few[7], 10, allgatherCells},                      // 11 leaders, one image per node
	} {
		shape := "" // the first case's subtests keep the names they had alone
		if i > 0 {
			shape = kc.sc.label + "/"
		}
		for _, backend := range confBackends {
			for _, c := range kc.cells {
				sc := kc.sc
				sc.backend = backend
				t.Run(fmt.Sprintf("%s%s/%s/%s", shape, backend, c.k, c.name), func(t *testing.T) {
					w := sc.world(t)
					victim := team.Initial(w, w.Image(0)).T.Leaders()[kc.victim] // global = team rank here
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
							func() {
								defer func() {
									if r := recover(); r != nil {
										if pgas.AsFailedImageError(r) == nil {
											panic(r)
										}
										failed.Add(1)
									}
								}()
								runConfEpisodes(t, sc, c.k, c.name, true, v)
							}()
							im.AwaitFailedImages(1)
							runConfEpisodes(t, sc, c.k, c.name, true, v.FormSurvivors())
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
}

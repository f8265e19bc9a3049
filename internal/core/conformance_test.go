package core

// Randomized cross-algorithm conformance harness: seeded random team
// shapes (node count, images per node, block or cyclic placement) and
// payload sizes are swept across *every* registered algorithm of *every*
// collective kind — including the hierarchy-aware 2level/3level forms and
// the nb-* aliases, which Run* dispatches as start-on-a-coroutine+wait — and
// each result is compared bitwise against a serial reference computed
// directly from the input function. Inputs are small integers, so float64
// reductions are exact in any association order and bitwise comparison is
// meaningful.
//
// The sweep budget is CAF_CONFORMANCE_ROUNDS scenarios (default 4, 2 under
// -short); CAF_CONFORMANCE_SEED pins the scenario stream for reproduction.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"cafteams/internal/coll"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// Five episodes: enough for every parity class of landing regions to be
// reused at least twice, which is what the credit/done-wave flow control
// protects.
const confEpisodes = 5

type confScenario struct {
	nodes, perNode int
	place          topology.Placement
	elems          int
	seed           int64

	// label and topo, when set, override the synthetic shape above: the
	// scheduler-placement sweep injects gappy, non-rank-contiguous
	// topologies produced by the cluster placement policies here.
	label string
	topo  *topology.Topology

	// backend selects the execution substrate for world(): "" or "sim"
	// builds a simulated world, "native" a real-goroutine world on the
	// same logical topology (the cross-backend sweep runs both).
	backend string

	// episodes and rootOf, when set, replace the default episode count
	// (confEpisodes) and root schedule (confRoot) of runConfEpisodes.
	episodes int
	rootOf   func(ep, n int) int
	// skew, when set, draws the delay an image sleeps before each episode
	// (default: uniform below 20 µs).
	skew func(*rand.Rand) pgas.Time

	// splitPhase runs every collective call of the cell as a split-phase
	// operation (see run) instead of calling it directly.
	splitPhase bool
}

// run executes one collective call of a kind-k cell: directly, or — in
// split-phase mode — started as a coroutine, with a second handle of a
// different kind in flight beside it and compute between start and Wait, so
// the cell's algorithm runs interleaved with another one on the progress
// engine. The side operation owns its state (a private reduction name, or the
// flat broadcast no allreduce cell uses), so it is legal next to any cell.
func (s confScenario) run(t *testing.T, v *team.View, k Kind, call func()) {
	if !s.splitPhase {
		call()
		return
	}
	h := v.Img.StartOp(call)
	n := float64(v.T.Size())
	side := []float64{1}
	var h2 *pgas.AsyncOp
	if k == KindAllreduce {
		if v.Rank == 0 {
			side[0] = n
		}
		h2 = v.Img.StartOp(func() { RunBroadcast("binomial", v, 0, side) })
	} else {
		h2 = v.Img.StartOp(func() { RunAllreduce("rd", v, side, coll.Op[float64]{Name: "conf-side", Combine: coll.Sum.Combine}) })
	}
	v.Img.Compute(3e3)
	h.Wait()
	h2.Wait()
	if side[0] != n {
		t.Errorf("%s: side operation beside a %s cell = %v, want %v", s, k, side[0], n)
	}
}

func (s confScenario) String() string {
	mode := ""
	if s.splitPhase {
		mode = "-splitphase"
	}
	if s.label != "" {
		return fmt.Sprintf("%s-%delems%s", s.label, s.elems, mode)
	}
	return fmt.Sprintf("%dx%d-%s-%delems%s", s.nodes, s.perNode, s.place, s.elems, mode)
}

func (s confScenario) world(t testing.TB) *pgas.World {
	t.Helper()
	topo := s.topo
	if topo == nil {
		var err error
		topo, err = topology.New(s.nodes, 2, (s.perNode+1)/2, s.nodes*s.perNode, s.place)
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.backend == "native" {
		return pgas.NewNativeWorld(machine.PaperCluster(), topo, trace.New())
	}
	w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func conformanceEnv(t *testing.T, name string, dflt int64) int64 {
	if s := os.Getenv(name); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("%s=%q: %v", name, s, err)
		}
		return n
	}
	return dflt
}

// confInput is the pure per-(rank, episode, salt) input vector every serial
// reference is recomputed from: small integers in [-100, 100].
func confInput(seed int64, salt, rank, ep, elems int) []float64 {
	v := make([]float64, elems)
	for i := range v {
		v[i] = confElem(seed, salt, rank, ep, i)
	}
	return v
}

// confElem is element i of confInput's vector.
func confElem(seed int64, salt, rank, ep, i int) float64 {
	x := seed + int64(salt)*9973 + int64(rank)*31 + int64(ep)*7 + int64(i)
	return float64(x%201 - 100)
}

// confSum is the sum of ranks 0..ranks-1's input vectors. Each rank's vector
// reads the same cycle of 201 values, shifted by 31 per rank, so while no
// input is negative before its %201 the sum is one table over the cycle: a
// scan's check costs each image O(ranks+elems), not O(ranks·elems).
func confSum(seed int64, salt, ranks, ep, elems int) []float64 {
	want := make([]float64, elems)
	base := seed + int64(salt)*9973 + int64(ep)*7
	if base < 0 || base+int64(31*ranks+elems) < 0 {
		for r := range ranks {
			for i := range want {
				want[i] += confElem(seed, salt, r, ep, i)
			}
		}
		return want
	}
	var cycle [201]float64
	for m := range cycle {
		for r := range ranks {
			cycle[m] += float64((int64(m+31*r))%201 - 100)
		}
	}
	for i := range want {
		want[i] = cycle[(base+int64(i))%201]
	}
	return want
}

func confCheck(t *testing.T, label string, got, want []float64) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: len %d, want %d", label, len(got), len(want))
		return false
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: elem %d = %v, want %v", label, i, got[i], want[i])
			return false
		}
	}
	return true
}

// confRoot derives the episode's root deterministically on every image.
func confRoot(seed int64, ep, n int) int {
	r := int((seed + int64(ep)*13) % int64(n))
	if r < 0 {
		r += n
	}
	return r
}

// runConfCell verifies one (kind, algorithm) cell on one scenario.
func runConfCell(t *testing.T, sc confScenario, k Kind, name string) {
	switch k {
	case KindBarrier:
		checkBarrierOn(t, sc, name)
	case KindScan:
		for _, exclusive := range []bool{false, true} {
			runConformanceData(t, sc, k, name, exclusive)
		}
	default:
		runConformanceData(t, sc, k, name, false)
	}
}

// runConformanceData runs confEpisodes episodes of one (kind, algorithm)
// pair on one scenario and verifies every image's result bitwise against
// the serial reference.
func runConformanceData(t *testing.T, sc confScenario, k Kind, name string, exclusive bool) {
	w := sc.world(t)
	w.Run(func(im *pgas.Image) {
		runConfEpisodes(t, sc, k, name, exclusive, team.Initial(w, im))
	})
}

// runConfEpisodes is the episode loop of runConformanceData, parameterized
// by the team view it runs on: every member of v calls it collectively.
// Sizing, ranks and serial references all come from the view, so the same
// loop verifies a full initial team or a shrunken survivor team (the
// degraded-mode sweep) — the reference is recomputed over exactly the
// view's team-relative ranks. An image that finds a wrong result reports it
// and goes on to the next episode: on native, where a missing gate shows as a
// region overwritten a moment too early, an image that stopped would leave its
// peers waiting for it.
func runConfEpisodes(t *testing.T, sc confScenario, k Kind, name string, exclusive bool, v *team.View) {
	im := v.Img
	n := v.T.Size()
	elems := sc.elems
	rng := rand.New(rand.NewSource(sc.seed ^ int64(im.Rank()*2654435761)))
	episodes := confEpisodes
	if sc.episodes > 0 {
		episodes = sc.episodes
	}
	for ep := 0; ep < episodes; ep++ {
		// Random skew so no algorithm can rely on lockstep entry.
		if sc.skew != nil {
			im.Sleep(sc.skew(rng))
		} else {
			im.Sleep(pgas.Time(rng.Intn(20000)))
		}
		root := confRoot(sc.seed, ep, n)
		if sc.rootOf != nil {
			root = sc.rootOf(ep, n)
		}
		label := fmt.Sprintf("%s/%s/%s ep%d rank%d", sc, k, name, ep, v.Rank)
		mine := confInput(sc.seed, 0, v.Rank, ep, elems)
		switch k {
		case KindAllreduce:
			buf := append([]float64(nil), mine...)
			sc.run(t, v, k, func() { RunAllreduce(name, v, buf, coll.Sum) })
			confCheck(t, label, buf, confSum(sc.seed, 0, n, ep, elems))
		case KindReduceTo:
			buf := append([]float64(nil), mine...)
			sc.run(t, v, k, func() { RunReduceTo(name, v, root, buf, coll.Sum) })
			if v.Rank == root {
				confCheck(t, label, buf, confSum(sc.seed, 0, n, ep, elems))
			}
		case KindBroadcast:
			buf := append([]float64(nil), mine...)
			sc.run(t, v, k, func() { RunBroadcast(name, v, root, buf) })
			confCheck(t, label, buf, confInput(sc.seed, 0, root, ep, elems))
		case KindAllgather:
			out := make([]float64, n*elems)
			sc.run(t, v, k, func() { RunAllgather(name, v, mine, out) })
			for r := 0; r < n; r++ {
				if !confCheck(t, label, out[r*elems:(r+1)*elems], confInput(sc.seed, 0, r, ep, elems)) {
					break
				}
			}
		case KindScatter:
			// send is significant only at the root: pass nil elsewhere
			// to prove no algorithm touches it.
			var send []float64
			if v.Rank == root {
				send = make([]float64, 0, n*elems)
				for r := 0; r < n; r++ {
					send = append(send, confInput(sc.seed, 0, r, ep, elems)...)
				}
			}
			recv := make([]float64, elems)
			sc.run(t, v, k, func() { RunScatter(name, v, root, send, recv) })
			confCheck(t, label, recv, mine)
		case KindGather:
			var recv []float64
			if v.Rank == root {
				recv = make([]float64, n*elems)
			}
			sc.run(t, v, k, func() { RunGather(name, v, root, mine, recv) })
			if v.Rank == root {
				for r := 0; r < n; r++ {
					if !confCheck(t, label, recv[r*elems:(r+1)*elems], confInput(sc.seed, 0, r, ep, elems)) {
						break
					}
				}
			}
		case KindAlltoall:
			send := make([]float64, 0, n*elems)
			for d := 0; d < n; d++ {
				// Block src→dst is salted by the destination so every
				// pair exchanges a distinct vector.
				send = append(send, confInput(sc.seed, 1+d, v.Rank, ep, elems)...)
			}
			recv := make([]float64, n*elems)
			sc.run(t, v, k, func() { RunAlltoall(name, v, send, recv) })
			for s := 0; s < n; s++ {
				if !confCheck(t, label, recv[s*elems:(s+1)*elems], confInput(sc.seed, 1+v.Rank, s, ep, elems)) {
					break
				}
			}
		case KindScan:
			buf := append([]float64(nil), mine...)
			sc.run(t, v, k, func() { RunScan(name, v, buf, coll.Sum, exclusive) })
			var want []float64
			switch {
			case !exclusive:
				want = confSum(sc.seed, 0, v.Rank+1, ep, elems)
			case v.Rank == 0:
				want = mine // exclusive scan leaves rank 0 unchanged
			default:
				want = confSum(sc.seed, 0, v.Rank, ep, elems)
			}
			confCheck(t, label, buf, want)
		default:
			t.Errorf("kind %v is not data-bearing", k)
			return
		}
	}
}

// TestConformance512MultiLevel pins correctness at extreme-study scale: 512
// images on a full three-level machine (32 nodes x 2 sockets x 8 cores,
// block placement), the shape the teamsbench -scale sweeps extrapolate
// from. Only the logarithmic-depth algorithms run — the linear/ring
// baselines add O(N^2) runtime at this size without adding coverage (the
// randomized sweep exercises them at small N).
func TestConformance512MultiLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("512-image scenario skipped under -short")
	}
	topo, err := topology.New(32, 2, 8, 512, topology.PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	sc := confScenario{
		label: "512-multilevel",
		topo:  topo,
		elems: 3,
		seed:  20260808,
	}
	algs := map[Kind][]string{
		KindBarrier:   {"dissemination", "tdlb", "tdlb3"},
		KindAllreduce: {"rd", "2level", "3level", "nb-2level"},
		KindReduceTo:  {"binomial", "2level"},
		KindBroadcast: {"binomial", "2level", "nb-2level"},
		KindScan:      {"rd", "2level"},
	}
	for _, k := range Kinds() {
		for _, name := range algs[k] {
			k, name := k, name
			t.Run(fmt.Sprintf("%s/%s", k, name), func(t *testing.T) {
				runConfCell(t, sc, k, name)
			})
		}
	}
}

// TestConformanceRandomized is the randomized sweep entry point.
func TestConformanceRandomized(t *testing.T) {
	seed := conformanceEnv(t, "CAF_CONFORMANCE_SEED", 20260729)
	rounds := int(conformanceEnv(t, "CAF_CONFORMANCE_ROUNDS", 4))
	if testing.Short() && os.Getenv("CAF_CONFORMANCE_ROUNDS") == "" {
		rounds = 2
	}
	rng := rand.New(rand.NewSource(seed))
	elemChoices := []int{1, 2, 3, 5, 16, 33, 65}
	for round := 0; round < rounds; round++ {
		sc := confScenario{
			nodes:   1 + rng.Intn(5),
			perNode: 1 + rng.Intn(6),
			place:   topology.Placement(rng.Intn(2)),
			elems:   elemChoices[rng.Intn(len(elemChoices))],
			seed:    rng.Int63(),
		}
		// The last scenario of the sweep also runs in split-phase mode.
		modes := []bool{false}
		if round == rounds-1 {
			modes = append(modes, true)
		}
		for _, mode := range modes {
			sc := sc
			sc.splitPhase = mode
			t.Run(sc.String(), func(t *testing.T) {
				for _, k := range Kinds() {
					for _, name := range Algorithms(k) {
						k, name := k, name
						t.Run(fmt.Sprintf("%s/%s", k, name), func(t *testing.T) {
							runConfCell(t, sc, k, name)
						})
					}
				}
			})
		}
	}
}

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
	"sync/atomic"
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

// numEpisodes is the scenario's episode count.
func (s confScenario) numEpisodes() int {
	if s.episodes > 0 {
		return s.episodes
	}
	return confEpisodes
}

// skewer returns an image's draw of the delay it sleeps before each episode:
// random, so no algorithm can rely on lockstep entry.
func (s confScenario) skewer(rank int) func() pgas.Time {
	rng := rand.New(rand.NewSource(s.seed ^ int64(rank*2654435761)))
	if s.skew != nil {
		return func() pgas.Time { return s.skew(rng) }
	}
	return func() pgas.Time { return pgas.Time(rng.Intn(20000)) }
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

// onSpec returns sc on the topology of spec, such as "16(2)", labelled by it.
func onSpec(t testing.TB, spec string, sc confScenario) confScenario {
	t.Helper()
	topo, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	sc.label, sc.topo = spec, topo
	return sc
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

// confSum is the sum of ranks 0..ranks-1's input vectors. Rank r's element i
// is (base+31r+i) mod 201 − 100, and 31 is prime to 201, so any 201
// consecutive ranks contribute every residue once and sum to zero: only the
// last ranks mod 201 ranks count, and element i sums like element i−201. While
// no input is negative before its %201, a check costs an image
// O(min(elems, 201)·min(ranks, 201)), not O(ranks·elems).
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
	for i := range want {
		if i >= 201 {
			want[i] = want[i-201]
			continue
		}
		for r := range ranks % 201 {
			want[i] += float64((base+int64(i+31*r))%201 - 100)
		}
	}
	return want
}

// confLabel names one image's check of one episode. It is formatted only when
// the check fails.
type confLabel struct {
	sc       *confScenario
	k        Kind
	name     string
	ep, rank int
}

func (l *confLabel) String() string {
	return fmt.Sprintf("%s/%s/%s ep%d rank%d", *l.sc, l.k, l.name, l.ep, l.rank)
}

func confCheck(t *testing.T, label any, got, want []float64) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%v: len %d, want %d", label, len(got), len(want))
		return false
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%v: elem %d = %v, want %v", label, i, got[i], want[i])
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

// heavySkew draws a skew heavy enough for a fast image to run episodes ahead
// of a slow one: one episode in four sleeps up to long ns, the others up to
// short.
func heavySkew(long, short int) func(*rand.Rand) pgas.Time {
	return func(rng *rand.Rand) pgas.Time {
		if rng.Intn(4) == 0 {
			return pgas.Time(rng.Intn(long))
		}
		return pgas.Time(rng.Intn(short))
	}
}

// runSkewCell runs one cell of a skew table as a subtest per backend, named
// sc/backend/cell (sc/cell for the scenario's own backend, ""): native after
// sim, and only if sim passed — the simulator reports a deadlock, native
// would wait forever — with a panic a failure.
func runSkewCell(t *testing.T, sc confScenario, backends []string, cell string, body func(*testing.T, confScenario)) {
	for _, backend := range backends {
		sc.backend = backend
		name := fmt.Sprintf("%s/%s/%s", sc, backend, cell)
		if backend == "" {
			name = fmt.Sprintf("%s/%s", sc, cell)
		}
		if !t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%v", r)
				}
			}()
			body(t, sc)
		}) {
			return
		}
	}
}

// checkBarrierOn verifies barrier semantics on either backend: no image
// leaves episode ep before every image has entered it. The episode stamps
// are accessed atomically so the check itself is race-free under native
// concurrency.
func checkBarrierOn(t *testing.T, sc confScenario, alg string) {
	w := sc.world(t)
	n := w.NumImages()
	entered := make([]int64, n)
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		skew := sc.skewer(im.Rank())
		for ep := int64(1); ep <= int64(sc.numEpisodes()); ep++ {
			im.Sleep(skew())
			atomic.StoreInt64(&entered[im.Rank()], ep)
			sc.run(t, v, KindBarrier, func() { RunBarrier(alg, v) })
			for r := 0; r < n; r++ {
				if atomic.LoadInt64(&entered[r]) < ep {
					t.Errorf("%s/barrier/%s: image %d left episode %d before image %d entered",
						sc, alg, im.Rank(), ep, r)
					return
				}
			}
		}
	})
}

// runConformanceData runs the episodes of one (kind, algorithm)
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
	skew := sc.skewer(im.Rank())
	label := &confLabel{sc: &sc, k: k, name: name, rank: v.Rank}
	for ep := range sc.numEpisodes() {
		im.Sleep(skew())
		root := confRoot(sc.seed, ep, n)
		if sc.rootOf != nil {
			root = sc.rootOf(ep, n)
		}
		label.ep = ep
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

// TestConfSumIsTheSerialSum pins the serial reference's shortcut to the
// element-wise sum it stands for: across the cycle's length in ranks and in
// elements, and on seeds that are negative or large, where it falls back.
func TestConfSumIsTheSerialSum(t *testing.T) {
	const ep = 3
	for _, seed := range []int64{0, 1, 20260808, 20264017, -5, 1 << 40} {
		for _, ranks := range []int{1, 2, 7, 200, 201, 202, 403, 512} {
			for _, elems := range []int{1, 3, 200, 201, 202, 1500} {
				for _, salt := range []int{0, 3} {
					want := make([]float64, elems)
					for r := range ranks {
						for i := range want {
							want[i] += confElem(seed, salt, r, ep, i)
						}
					}
					label := fmt.Sprintf("seed %d ranks %d elems %d salt %d", seed, ranks, elems, salt)
					confCheck(t, label, confSum(seed, salt, ranks, ep, elems), want)
				}
			}
		}
	}
}

//go:build !race

package core

// What a collective call allocates once its state exists: nothing. State and scratch lookups hit the view's cache without building a
// key string, temporaries are kept per view (coll.Temp), native puts land
// inline and a native wait builds its description only when it fails — so
// per-episode garbage is a regression, and on the native backend it is CPU
// the wall clock sees. (Not built under -race, where allocation counts mean
// nothing.)

import (
	"runtime"
	"strings"
	"testing"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/topology"
)

// steadyStateAllocs runs kind k under pol on sc's world (allocShape: 8(2)) at
// sc.elems (128 when unset) — two warm-up episodes (both
// parities: state, scratch slabs, flag rows, temporaries), then eps measured
// ones — and returns the heap objects allocated per episode per image.
// Everything the images allocate between rank 0's two readings counts; the
// barriers that fence the readings are themselves inside the window.
func steadyStateAllocs(t *testing.T, sc confScenario, k Kind, pol Policy) float64 {
	t.Helper()
	const warm, eps, root = 2, 40, 5 // root: a non-leader (8(2): of the second node)
	elems := 128
	if sc.elems > 0 {
		elems = sc.elems
	}
	w := sc.world(t)
	var before, after runtime.MemStats
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		n := v.NumImages()
		vec, all, all2 := make([]float64, elems), make([]float64, n*elems), make([]float64, n*elems)
		maxOp := coll.MaxOp[float64]()
		episode := func() {
			switch k {
			case KindBarrier:
				pol.Barrier(v)
			case KindAllreduce:
				PolicyAllreduce(pol, v, vec, coll.Sum)
			case KindReduceTo:
				PolicyReduceTo(pol, v, root, vec, coll.Sum)
			case KindBroadcast:
				PolicyBroadcast(pol, v, root, vec)
			case KindAllgather:
				PolicyAllgather(pol, v, vec, all)
			case KindScatter:
				PolicyScatter(pol, v, root, all, vec)
			case KindGather:
				PolicyGather(pol, v, root, vec, all)
			case KindAlltoall:
				PolicyAlltoall(pol, v, all, all2)
			case KindScan:
				PolicyScan(pol, v, vec, maxOp, false)
			}
		}
		for i := 0; i < warm; i++ {
			episode()
			pol.Barrier(v)
		}
		if im.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		pol.Barrier(v)
		for i := 0; i < eps; i++ {
			episode()
		}
		pol.Barrier(v)
		if im.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		pol.Barrier(v) // nobody starts tearing down before the reading
	})
	return float64(after.Mallocs-before.Mallocs) / float64(eps*w.NumImages())
}

func allocShape(backend string) confScenario {
	return confScenario{nodes: 2, perNode: 4, place: topology.PlaceBlock, backend: backend}
}

// TestLogDepthStagesSteadyStateAllocs is the same pin for the leaders' stages
// that the 8(2) world never reaches: scan/2level's exchange over the team's
// rank-ordered leaders on 24 nodes, and coll.SubgroupAllgatherBruck under both
// its callers on 24, 4 and 8 (its block function and its pack/unpack helper are
// closures: they must stay on the stack).
func TestLogDepthStagesSteadyStateAllocs(t *testing.T) {
	few := fewLeaderScenarios(t)
	for _, c := range []struct {
		sc    confScenario
		cells []leaderCell
	}{{manyLeaderScenarios(t)[1], leaderStageCells}, {few[2], allgatherCells}, {few[6], allgatherCells}} {
		c.sc.backend = "native"
		for _, cell := range c.cells {
			pol := Policy{Level: LevelAuto, Tuning: Tuning{}.With(cell.k, cell.name)}
			native := steadyStateAllocs(t, c.sc, cell.k, pol)
			t.Logf("%s/%s on %s: %.2f allocs per episode per image on native", cell.k, cell.name, c.sc, native)
			if native > 0.05 {
				t.Errorf("%s/%s on %s: %.2f allocs per episode per image on native, want 0", cell.k, cell.name, c.sc, native)
			}
		}
	}
}

// TestCollectiveSteadyStateAllocs holds every kind to zero heap objects per
// episode per image on the native backend — all nine, alltoall, allgather and
// scan included; the hierarchy default, the decision table's pick, whose
// lookup and decision counter are on every call's path, and every registered
// algorithm by name but the "nb-" aliases (starting a split-phase operation
// allocates its handle by design) — and reports the same table on the sim
// backend (where every put stages a copy and every image is a simulated
// process: a report, not a gate).
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	for _, k := range Kinds() {
		tunings := []Tuning{{}, AllAuto()}
		for _, name := range Algorithms(k) {
			if !strings.HasPrefix(name, "nb-") {
				tunings = append(tunings, Tuning{}.With(k, name))
			}
		}
		for _, tuning := range tunings {
			pol := Policy{Level: LevelAuto, Tuning: tuning}
			native := steadyStateAllocs(t, allocShape("native"), k, pol)
			sim := steadyStateAllocs(t, allocShape("sim"), k, pol)
			t.Logf("%-9s tuning %q: native %.2f allocs/episode/image, sim %.2f", k, pol.Tuning.For(k), native, sim)
			// A stray runtime allocation (a sudog, a GC worker) must not fail
			// the pin: 40 episodes x 8 images leave room for a handful.
			if native > 0.05 {
				t.Errorf("%s, tuning %q: %.2f allocs per episode per image on native, want 0", k, pol.Tuning.For(k), native)
			}
		}
	}
	// bcast/2level's pipeline runs above one segment (8(2): segBytes, one
	// round of the leaders' tree), above 128 elements: its per-segment hooks
	// are closures that must stay on the stack. (allgather/2level's members,
	// which take each round as it lands, are among the registered algorithms
	// above.)
	for _, elems := range []int{segBytes/8 + 1, 5*segBytes/8 - 3} {
		pol := Policy{Level: LevelAuto, Tuning: Tuning{}.With(KindBroadcast, "2level")}
		sc := allocShape("native")
		sc.elems = elems
		native := steadyStateAllocs(t, sc, KindBroadcast, pol)
		t.Logf("bcast/2level segmented at %d elems: native %.2f allocs/episode/image", elems, native)
		if native > 0.05 {
			t.Errorf("bcast/2level segmented at %d elems: %.2f allocs per episode per image on native, want 0", elems, native)
		}
	}
	// scan/2level's node stage by slices and its chain in segments run above
	// 128 elements: at 5,117 on 8(2), slices of a node of four and a chain of
	// five segments. Its slice, total, prefix and result boxes and the chain's
	// leaders-only state are found again like every other.
	{
		pol := Policy{Level: LevelAuto, Tuning: Tuning{}.With(KindScan, "2level")}
		sc := allocShape("native")
		sc.elems = 5*chainSegBytes/8 - 3
		native := steadyStateAllocs(t, sc, KindScan, pol)
		t.Logf("scan/2level sliced and segmented at %d elems: native %.2f allocs/episode/image", sc.elems, native)
		if native > 0.05 {
			t.Errorf("scan/2level sliced and segmented at %d elems: %.2f allocs per episode per image on native, want 0", sc.elems, native)
		}
	}
	// The leveled reductions' sliced node stage runs from sliceBytes per slice
	// up, above 128 elements: on 2 nodes × 3 sockets × 3 cores at 576, 2level
	// slices over nodes of 9 and 3level over both levels of 3. Its slice and
	// gather boxes are found again by role like every other.
	topo, err := topology.New(2, 3, 3, 18, topology.PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		k    Kind
		name string
	}{{KindAllreduce, "2level"}, {KindAllreduce, "3level"}, {KindReduceTo, "2level"}} {
		pol := Policy{Level: LevelAuto, Tuning: Tuning{}.With(c.k, c.name)}
		sc := confScenario{topo: topo, elems: 576, backend: "native"}
		native := steadyStateAllocs(t, sc, c.k, pol)
		t.Logf("%s/%s sliced on 2x3x3 at %d elems: native %.2f allocs/episode/image", c.k, c.name, sc.elems, native)
		if native > 0.05 {
			t.Errorf("%s/%s sliced: %.2f allocs per episode per image on native, want 0", c.k, c.name, native)
		}
	}
}

// TestScanStateDoesNotGrowWithNodes pins the rank chain of the two-level scan
// as a property of the team: what an image allocates for its first scan/2level
// episodes — state, scratch, temporaries — is the same on 32 nodes and on 128.
// Kept per view, the chain (a node-count-long slice, sorted once per image)
// added 8 bytes per node to every image.
func TestScanStateDoesNotGrowWithNodes(t *testing.T) {
	perImage := func(images int) float64 {
		topo, err := topology.New(images/8, 2, 4, images, topology.PlaceBlock)
		if err != nil {
			t.Fatal(err)
		}
		w := confScenario{topo: topo}.world(t)
		var before, after runtime.MemStats
		w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			buf := make([]float64, 8)
			RunBarrier("tdlb", v) // its own state exists before the first reading
			if im.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			RunBarrier("tdlb", v)
			for ep := 0; ep < 2; ep++ {
				RunScan("2level", v, buf, coll.Sum, ep == 1)
			}
			RunBarrier("tdlb", v)
			if im.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
			RunBarrier("tdlb", v)
		})
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(images)
	}
	small, large := perImage(256), perImage(1024)
	t.Logf("scan/2level, first two episodes: %.0f B/image at 256 images, %.0f B/image at 1024", small, large)
	if large > 1.1*small {
		t.Errorf("scan/2level allocates %.0f B per image on 128 nodes, %.0f on 32: it grows with the node count", large, small)
	}
}

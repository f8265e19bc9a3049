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
	"testing"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/topology"
)

// steadyStateAllocs runs kind k under pol on sc's world (allocShape: 8(2)) at
// 128 elems — two warm-up episodes (both
// parities: state, scratch slabs, flag rows, temporaries), then eps measured
// ones — and returns the heap objects allocated per episode per image.
// Everything the images allocate between rank 0's two readings counts; the
// barriers that fence the readings are themselves inside the window.
func steadyStateAllocs(t *testing.T, sc confScenario, k Kind, pol Policy) float64 {
	t.Helper()
	const warm, eps, elems, root = 2, 40, 128, 5 // root: a non-leader of the second node
	w := sc.world(t)
	var before, after runtime.MemStats
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		n := v.NumImages()
		vec, all, all2 := make([]float64, elems), make([]float64, n*elems), make([]float64, n*elems)
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
				PolicyScan(pol, v, vec, coll.Max, false)
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
// scan included; the hierarchy default and the decision table's pick, whose
// lookup and decision counter are on every call's path — and reports the same
// table on the sim backend (where every put stages a copy and every image is a
// simulated process: a report, not a gate).
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	for _, pol := range []Policy{{Level: LevelAuto}, {Level: LevelAuto, Tuning: AllAuto()}} {
		for _, k := range Kinds() {
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

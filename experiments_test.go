// Integration shape tests: fast, assertion-bearing versions of the
// experiment suite. They fail if a paper-reproduced *shape* regresses —
// parity on flat hierarchies, hierarchy-aware wins on dense placements,
// improvement ordering across collectives, and the Figure 1 variant ordering.
package main

import (
	"testing"

	"cafteams/internal/bench"
	"cafteams/internal/coll"
	"cafteams/internal/core"
	"cafteams/internal/hpl"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

func measureT(t *testing.T, spec string, cmp bench.Comparator, elems, iters int) sim.Time {
	t.Helper()
	p, err := bench.Measure(spec, "sim", cmp, elems, iters)
	if err != nil {
		t.Fatal(err)
	}
	return p.Latency
}

func comparator(t *testing.T, set []bench.Row, name string) bench.Comparator {
	t.Helper()
	for _, r := range set {
		if r.Label == name {
			return r.Comparator()
		}
	}
	t.Fatalf("no comparator %q", name)
	return bench.Comparator{}
}

func TestShapeE1FlatHierarchyParity(t *testing.T) {
	tdlb := measureT(t, "16(16)", comparator(t, bench.BarrierSet, "TDLB (2-level)"), 1, 8)
	diss := measureT(t, "16(16)", comparator(t, bench.BarrierSet, "GASNet RDMA dissemination"), 1, 8)
	if tdlb != diss {
		t.Fatalf("E1 parity broken: TDLB %d ns vs dissemination %d ns", tdlb, diss)
	}
}

func TestShapeE2BarrierBands(t *testing.T) {
	tdlb := measureT(t, "128(16)", comparator(t, bench.BarrierSet, "TDLB (2-level)"), 1, 8)
	am := measureT(t, "128(16)", comparator(t, bench.BarrierSet, "UHCAF dissemination (AM)"), 1, 8)
	rdma := measureT(t, "128(16)", comparator(t, bench.BarrierSet, "GASNet RDMA dissemination"), 1, 8)
	ratio := float64(am) / float64(tdlb)
	if ratio < 8 || ratio > 60 {
		t.Fatalf("E2 ratio vs AM baseline = %.1f, want order-of-magnitude band [8, 60]", ratio)
	}
	if rdma <= tdlb {
		t.Fatalf("E2: flat RDMA dissemination (%d) must lose to TDLB (%d)", rdma, tdlb)
	}
	// Improvement grows with images-per-node density: 8/node beats 2/node.
	tdlbSparse := measureT(t, "32(16)", comparator(t, bench.BarrierSet, "TDLB (2-level)"), 1, 8)
	amSparse := measureT(t, "32(16)", comparator(t, bench.BarrierSet, "UHCAF dissemination (AM)"), 1, 8)
	if float64(amSparse)/float64(tdlbSparse) >= ratio {
		t.Fatalf("E2 trend broken: ratio at 2/node (%.1f) not below ratio at 8/node (%.1f)",
			float64(amSparse)/float64(tdlbSparse), ratio)
	}
}

func TestShapeE3E4ImprovementOrdering(t *testing.T) {
	// Paper ordering of improvements vs the old runtime:
	// broadcast (3x) < barrier (26x) < reduction (74x).
	spec := "128(16)"
	bar := float64(measureT(t, spec, comparator(t, bench.BarrierSet, "UHCAF dissemination (AM)"), 1, 6)) /
		float64(measureT(t, spec, comparator(t, bench.BarrierSet, "TDLB (2-level)"), 1, 6))
	red := float64(measureT(t, spec, comparator(t, bench.ReduceSet, "UHCAF linear (AM)"), 16, 4)) /
		float64(measureT(t, spec, comparator(t, bench.ReduceSet, "two-level reduction"), 16, 4))
	bc := float64(measureT(t, spec, comparator(t, bench.BcastSet, "UHCAF binomial (AM)"), 16, 4)) /
		float64(measureT(t, spec, comparator(t, bench.BcastSet, "two-level broadcast"), 16, 4))
	if !(bc < bar && bar < red) {
		t.Fatalf("improvement ordering broken: bcast %.1fx, barrier %.1fx, reduction %.1fx (want bcast < barrier < reduction)",
			bc, bar, red)
	}
}

func TestShapeE5VariantOrdering(t *testing.T) {
	// Small-N Figure 1 column: UHCAF-2level must lead, CAF2.0-GFortran
	// must trail, and the two-level gain over one-level must be tens of
	// percent at a communication-bound size.
	variants := hpl.PaperVariants()
	gf := make(map[string]float64)
	for _, v := range variants {
		topo, err := topology.ParseSpec("64(8)")
		if err != nil {
			t.Fatal(err)
		}
		w, err := pgas.NewWorld(sim.NewEnv(), v.Model(machine.PaperCluster()), topo, trace.New())
		if err != nil {
			t.Fatal(err)
		}
		res := hpl.Run(w, hpl.Config{N: 1024, NB: 64, P: 8, Q: 8, Seed: 1, Level: v.Level})
		if res.Err != nil {
			t.Fatalf("%s: %v", v.Name, res.Err)
		}
		gf[v.Name] = res.GFlops
	}
	two := gf["UHCAF 2level"]
	for name, g := range gf {
		if name != "UHCAF 2level" && g >= two {
			t.Fatalf("E5 ordering: %s (%.2f GF) >= UHCAF 2level (%.2f GF)", name, g, two)
		}
	}
	if gfortran := gf["CAF2.0 GFortran backend"]; gfortran >= gf["CAF2.0 OpenUH backend"] {
		t.Fatalf("E5 ordering: GFortran backend (%.2f) >= OpenUH backend (%.2f)", gfortran, gf["CAF2.0 OpenUH backend"])
	}
	gain := two/gf["UHCAF 1level"] - 1
	if gain < 0.10 {
		t.Fatalf("E5: two-level gain over one-level = %.1f%%, want tens of percent at N=1024", 100*gain)
	}
}

func TestShapeE6StrategyCrossover(t *testing.T) {
	// Linear-among-leaders wins on few nodes, dissemination wins at scale.
	timeBar := func(spec string, fn func(v *team.View)) sim.Time {
		topo, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			for i := 0; i < 8; i++ {
				fn(v)
			}
		})
	}
	smallTDLB := timeBar("32(4)", core.BarrierTDLB)
	smallTDLL := timeBar("32(4)", core.BarrierTDLL)
	bigTDLB := timeBar("352(44)", core.BarrierTDLB)
	bigTDLL := timeBar("352(44)", core.BarrierTDLL)
	if smallTDLL >= smallTDLB {
		t.Fatalf("E6: linear inter (%d) should win at 4 nodes vs dissemination (%d)", smallTDLL, smallTDLB)
	}
	if bigTDLL <= bigTDLB {
		t.Fatalf("E6: dissemination inter (%d) should win at 44 nodes vs linear (%d)", bigTDLB, bigTDLL)
	}
}

func TestShapeE8MessageCountClosedForms(t *testing.T) {
	counts := func(n int, spec string, fn func(v *team.View)) int64 {
		topo, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		stats := trace.New()
		w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, stats)
		if err != nil {
			t.Fatal(err)
		}
		w.Run(func(im *pgas.Image) { fn(team.Initial(w, im)) })
		return stats.Snapshot().Ops[trace.OpNotify]
	}
	for _, c := range []struct {
		spec   string
		n, lg  int64
		linear int64
	}{
		{"8(2)", 8, 3, 14},
		{"16(4)", 16, 4, 30},
		{"64(8)", 64, 6, 126},
	} {
		diss := counts(int(c.n), c.spec, func(v *team.View) { coll.BarrierDissemination(v) })
		if diss != c.n*c.lg {
			t.Fatalf("%s: dissemination msgs = %d, want n·log n = %d", c.spec, diss, c.n*c.lg)
		}
		lin := counts(int(c.n), c.spec, func(v *team.View) { coll.BarrierLinear(v) })
		if lin != c.linear {
			t.Fatalf("%s: linear msgs = %d, want 2(n−1) = %d", c.spec, lin, c.linear)
		}
	}
}

// TestShapeRegistryHierarchyWins: on the paper's dense placement, the
// hierarchy-aware table entries must beat their flat baselines when
// selected purely by registry name — the acceptance gate for the registry
// dispatch layer (no special-cased fast path left behind).
func TestShapeRegistryHierarchyWins(t *testing.T) {
	const spec = "64(8)"
	lat := func(k core.Kind, name string, elems int) sim.Time {
		return measureT(t, spec, bench.RegistryComparator(k, name), elems, 6)
	}
	if tdlb, flat := lat(core.KindBarrier, "tdlb", 1), lat(core.KindBarrier, "dissemination", 1); tdlb >= flat {
		t.Fatalf("barrier/tdlb (%d) not faster than barrier/dissemination (%d)", tdlb, flat)
	}
	if two, flat := lat(core.KindAllreduce, "2level", 64), lat(core.KindAllreduce, "rd", 64); two >= flat {
		t.Fatalf("allreduce/2level (%d) not faster than allreduce/rd (%d)", two, flat)
	}
	if two, flat := lat(core.KindBroadcast, "2level", 64), lat(core.KindBroadcast, "binomial", 64); two >= flat {
		t.Fatalf("bcast/2level (%d) not faster than bcast/binomial (%d)", two, flat)
	}
	if two, flat := lat(core.KindReduceTo, "2level", 64), lat(core.KindReduceTo, "binomial", 64); two >= flat {
		t.Fatalf("reduceto/2level (%d) not faster than reduceto/binomial (%d)", two, flat)
	}
	if two, flat := lat(core.KindAllgather, "2level", 64), lat(core.KindAllgather, "ring", 64); two >= flat {
		t.Fatalf("allgather/2level (%d) not faster than allgather/ring (%d)", two, flat)
	}
}

func TestShapeHPLVerifiedEndToEnd(t *testing.T) {
	// The full pipeline with real arithmetic: distributed LU == serial LU,
	// HPL residual passes, and the two-level runtime is the faster one.
	topo, err := topology.ParseSpec("16(2)")
	if err != nil {
		t.Fatal(err)
	}
	w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
	if err != nil {
		t.Fatal(err)
	}
	res := hpl.Run(w, hpl.Config{N: 128, NB: 16, P: 4, Q: 4, Seed: 99,
		Level: core.LevelTwo, Real: true, Verify: true})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.MaxLUDiff != 0 {
		t.Fatalf("distributed factors differ from serial by %v (expect bitwise match)", res.MaxLUDiff)
	}
	if res.Residual > 16 {
		t.Fatalf("HPL residual = %v", res.Residual)
	}
}

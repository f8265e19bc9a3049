package main

import (
	"fmt"
	"math"
	"strings"

	"cafteams/internal/core"
	"cafteams/internal/machine"
)

// coll-sweep: every registered algorithm of all nine kinds, plus the auto
// rule's pick, on three shapes at two payload sizes either side of the auto
// rule's large-message threshold, plus the paper's three headline pairs at
// 352(44). The coll/core algorithm code, the pgas sim transport and the sim
// kernel do almost all the work here; world set-up is negligible.

// hierAlgs are the hierarchy-aware registry names; every other name is flat.
var hierAlgs = map[string]bool{"tdlb": true, "tdll": true, "tdlb3": true,
	"2level": true, "3level": true, "nb-2level": true}

// hierOf is the hierarchy-aware algorithm hier_speedup holds each kind to.
func hierOf(k core.Kind) string {
	if k == core.KindBarrier {
		return "tdlb"
	}
	return "2level"
}

func collSweepCells(cfg *config) []*cell {
	shapes := []shape{specShape("16(4)"), specShape("64(8)"), specShape("44(44)")}
	sizes := []int{128, 4096}
	paper := specShape("352(44)")
	eps := 3
	if cfg.tiny {
		shapes = []shape{specShape("8(2)"), specShape("4(4)")}
		sizes = []int{16, 64}
		paper = specShape("16(4)")
		eps = 2
	}
	var cells []*cell
	for si, size := range sizes {
		for shi, sh := range shapes {
			for _, k := range core.Kinds() {
				if k == core.KindBarrier && si > 0 {
					continue // barriers carry no payload: one size is all there is
				}
				// The large allgather and alltoall cells run on the first
				// shape only: at 64(8) the 4096-elem alltoall alone costs
				// seconds of host time and gigabytes.
				if si > 0 && shi > 0 && (k == core.KindAllgather || k == core.KindAlltoall) {
					continue
				}
				for _, alg := range append(core.Algorithms(k), algAuto) {
					group := "registry"
					if alg == algAuto {
						group = "auto"
					}
					cells = append(cells, &cell{kind: k, alg: alg, shape: sh, elems: size,
						eps: eps, group: group})
				}
			}
		}
	}
	// The paper's headline pairs, with the conduits and the episode and
	// element settings of the repository's bench_test.go (E2, E3, E4).
	pc := func(k core.Kind, alg string, conduit machine.Conduit, elems, eps int) *cell {
		return &cell{kind: k, alg: alg, shape: paper, elems: elems, eps: eps,
			conduit: conduit, fixedRoot: true, group: "paper"}
	}
	cells = append(cells,
		pc(core.KindBarrier, "tdlb", machine.ConduitGASNetRDMA, 1, 10),
		pc(core.KindBarrier, "dissemination", machine.ConduitGASNetAM, 1, 10),
		pc(core.KindAllreduce, "2level", machine.ConduitGASNetRDMA, 8, 5),
		pc(core.KindAllreduce, "linear", machine.ConduitGASNetAM, 8, 5),
		pc(core.KindBroadcast, "2level", machine.ConduitGASNetRDMA, 1024, 5),
		pc(core.KindBroadcast, "binomial", machine.ConduitGASNetRDMA, 1024, 5),
	)
	return cells
}

// cellGroup is the cells of one (kind, shape, size): the unit hier_speedup
// and auto_regret take their geomean over.
type cellGroup struct {
	bestFlat, hier, best, auto float64 // modeled ns per op; 0 = absent
}

func groupCells(cells []cellResult, groups ...string) (keys []string, by map[string]*cellGroup) {
	by = map[string]*cellGroup{}
	want := map[string]bool{}
	for _, g := range groups {
		want[g] = true
	}
	for i := range cells {
		r := &cells[i]
		if !want[r.c.group] {
			continue
		}
		key := fmt.Sprintf("%s@%s/%d", r.c.kind, r.c.shape.label, r.c.elems)
		g := by[key]
		if g == nil {
			g = &cellGroup{}
			by[key] = g
			keys = append(keys, key)
		}
		t := r.perOpNS()
		switch {
		case r.c.alg == algAuto:
			g.auto = t
			continue
		case r.c.alg == hierOf(r.c.kind):
			g.hier = t
		case !hierAlgs[r.c.alg]:
			if g.bestFlat == 0 || t < g.bestFlat {
				g.bestFlat = t
			}
		}
		if g.best == 0 || t < g.best {
			g.best = t
		}
	}
	return keys, by
}

// modeledGeomean is the geomean over cells of modeled µs per op.
func modeledGeomean(cells []cellResult) float64 {
	var xs []float64
	for i := range cells {
		xs = append(xs, cells[i].perOpNS()/1e3)
	}
	return geomean(xs)
}

func hierSpeedup(cells []cellResult, groups ...string) float64 {
	keys, by := groupCells(cells, groups...)
	var xs []float64
	for _, k := range keys {
		if g := by[k]; g.bestFlat > 0 && g.hier > 0 {
			xs = append(xs, g.bestFlat/g.hier)
		}
	}
	return geomean(xs)
}

func collSweepMetrics(cfg *config, p *pass, m metricSet) {
	m["modeled_us_geomean"] = modeledGeomean(p.cells)
	m["hier_speedup"] = hierSpeedup(p.cells, "registry")

	keys, by := groupCells(p.cells, "registry", "auto")
	var regrets []float64
	suboptimal, worst := 0, 1.0
	for _, k := range keys {
		g := by[k]
		if g.auto == 0 || g.best == 0 {
			continue
		}
		r := g.auto / g.best
		regrets = append(regrets, r)
		if r > 1 {
			suboptimal++
		}
		worst = math.Max(worst, r)
	}
	m["auto_regret"] = geomean(regrets)
	m["core.auto_cells_suboptimal"] = float64(suboptimal)
	m["core.auto_worst_regret"] = worst

	// Named cells: the middle shape at the small size (64(8)/128 elems).
	named := specShape("64(8)").label
	small := 128
	if cfg.tiny {
		named, small = "8(2)", 16
	}
	byKey := map[string]*cellResult{}
	for i := range p.cells {
		byKey[p.cells[i].c.key()] = &p.cells[i]
	}
	get := func(kind, alg, label string, elems int) *cellResult {
		k, err := core.ParseKind(kind)
		if err != nil {
			return nil
		}
		c := cell{kind: k, alg: alg, shape: shape{label: label}, elems: elems}
		return byKey[c.key()]
	}
	for _, a := range namedAlgs {
		kind, alg, _ := strings.Cut(a, ".")
		if r := get(kind, alg, named, small); r != nil {
			m["core.modeled_us."+a] = r.perOpNS() / 1e3
		}
	}
	m["core.cells"] = float64(len(p.cells))

	// Every nb-X must reproduce its blocking twin X exactly.
	var delta int64
	for i := range p.cells {
		r := &p.cells[i]
		if twin, ok := strings.CutPrefix(r.c.alg, "nb-"); ok && r.c.group == "registry" {
			tc := *r.c
			tc.alg = twin
			if t := byKey[tc.key()]; t != nil {
				if d := r.clockNS - t.clockNS; d > delta {
					delta = d
				} else if -d > delta {
					delta = -d
				}
			}
		}
	}
	m["core.nb_twin_max_delta_ns"] = float64(delta)

	// The paper's three headline ratios (baseline over hierarchy-aware).
	var paper []cellResult
	for _, r := range p.cells {
		if r.c.group == "paper" {
			paper = append(paper, r)
		}
	}
	if len(paper) == 6 {
		m["core.paper.e2_barrier_ratio"] = paper[1].perOpNS() / paper[0].perOpNS()
		m["core.paper.e3_reduce_ratio"] = paper[3].perOpNS() / paper[2].perOpNS()
		m["core.paper.e4_bcast_ratio"] = paper[5].perOpNS() / paper[4].perOpNS()
	}

	// The paper's argument made visible: where allreduce keeps the hardware
	// busy, flat recursive doubling against two-level.
	for _, alg := range []string{"rd", "2level"} {
		if r := get("allreduce", alg, named, small); r != nil && r.clockNS > 0 {
			den := float64(r.clockNS) * float64(r.nodes)
			m["hw.nic_busy_frac."+alg] = float64(r.nicBusy) / den
			m["hw.progress_busy_frac."+alg] = float64(r.progBusy) / den
			m["hw.membus_busy_frac."+alg] = float64(r.membusBusy) / den
		}
	}
}

var collSweep = &workload{
	name: "coll-sweep",
	why:  "every registered algorithm of all nine kinds plus the auto pick, three shapes, two sizes: coll/core algorithm code, the pgas sim transport and the sim kernel do the work",
	prepare: func(cfg *config) func(*tracer, int) *pass {
		cells := collSweepCells(cfg)
		buildPayloads(cfg, cells)
		return func(tr *tracer, repSpan int) *pass { return cellPass(cfg, cells, "sim", tr, repSpan) }
	},
	metrics: func(cfg *config, p *pass, tr *tracer, m metricSet) { collSweepMetrics(cfg, p, m) },
	golden:  func(p *pass) []goldenRow { return cellRows(p.cells) },
	probes: func(cfg *config, m metricSet) {
		simKernelProbes(cfg, m)
		pgasSimProbes(cfg, m)
	},
}

package main

import (
	"runtime"

	"cafteams/internal/core"
)

// scale-4k: 4096 images (512 nodes × 2 sockets × 4 cores, block placement),
// the log-depth algorithms only, 8 elems, 2 episodes. topology.New,
// pgas.NewWorld, team.Initial, 4096 goroutine stacks, per-member flag and
// scratch state and the garbage collector dominate here; the algorithm
// arithmetic is negligible. setup_s and peak_rss_mb are decided by this
// workload.

var scaleKindAlgs = []struct {
	kind core.Kind
	algs []string
}{
	{core.KindBarrier, []string{"dissemination", "tdlb", "tdlb3"}},
	{core.KindAllreduce, []string{"rd", "2level"}},
	{core.KindReduceTo, []string{"binomial", "2level"}},
	{core.KindBroadcast, []string{"binomial", "2level"}},
	{core.KindScan, []string{"rd", "2level"}},
}

func scaleShape(cfg *config) shape {
	if cfg.tiny {
		return blockShape(8)
	}
	return blockShape(512)
}

func scaleCells(cfg *config) []*cell {
	sh := scaleShape(cfg)
	var cells []*cell
	for _, ka := range scaleKindAlgs {
		for _, alg := range ka.algs {
			cells = append(cells, &cell{kind: ka.kind, alg: alg, shape: sh, elems: 8, eps: 2, group: "scale"})
		}
	}
	return cells
}

var scale4k = &workload{
	name: "scale-4k",
	// A 4096-image world's per-member state is gigabytes of mostly untouched
	// zero pages the first time a process allocates it. The second time, the
	// allocator recycles the address space and must clear it page by page:
	// the reduceto cell then takes 12 s instead of 0.6 s and the process holds
	// 5 GB instead of 0.7 GB. Users of the scale study run one pass per
	// process, so that is what a rep is here.
	isolate: true,
	why:     "4096-image worlds: topology, world and team set-up, goroutine stacks, per-member state and GC dominate; decides setup_s and peak_rss_mb",
	prepare: func(cfg *config) func(*tracer, int) *pass {
		cells := scaleCells(cfg)
		buildPayloads(cfg, cells)
		return func(tr *tracer, repSpan int) *pass { return cellPass(cfg, cells, "sim", tr, repSpan) }
	},
	metrics: func(cfg *config, p *pass, tr *tracer, m metricSet) {
		m["modeled_us_geomean"] = modeledGeomean(p.cells)
		m["hier_speedup"] = hierSpeedup(p.cells, "scale")
		var topoMS, initMS, setupMS []float64
		for i := range p.cells {
			r := &p.cells[i]
			name := "core.scale_us." + r.c.kind.String() + "." + r.c.alg + ".4096"
			if unitOf(name) != "" {
				m[name] = r.perOpNS() / 1e3
			}
			topoMS = append(topoMS, float64(r.topoNS)/1e6)
			initMS = append(initMS, float64(r.initNS)/1e6)
			setupMS = append(setupMS, float64(r.setupNS())/1e6)
		}
		m["topology.build_ms.4096"] = median(topoMS)
		m["team.initial_ms.4096"] = median(initMS)
		m["pgas.world_setup_ms.4096"] = median(setupMS)
	},
	golden: func(p *pass) []goldenRow { return cellRows(p.cells) },
	probes: func(cfg *config, m metricSet) {
		// Live heap per image once a world has run: what the per-member
		// flag, scratch and team state of one algorithm costs at this scale.
		sh := scaleShape(cfg)
		for _, probe := range []struct {
			kind core.Kind
			alg  string
		}{{core.KindBarrier, "dissemination"}, {core.KindReduceTo, "binomial"}} {
			c := &cell{kind: probe.kind, alg: probe.alg, shape: sh, elems: 8, eps: 2, heapProbe: true}
			pl := cfg.pls.get(sh.images, c.elems, c.eps)
			var before runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			r := runCell(c, "sim", cfg.seed, pl, nil, -1)
			if r.heapLive > before.HeapAlloc {
				m["pgas.heap_bytes_per_image.4096."+probe.kind.String()] =
					float64(r.heapLive-before.HeapAlloc) / float64(sh.images)
			}
		}
		// Set-up cost of the paper-scale 64(8) world, for contrast.
		small := specShape("64(8)")
		if cfg.tiny {
			small = specShape("8(2)")
		}
		c := &cell{kind: core.KindBarrier, alg: "tdlb", shape: small, elems: 1, eps: 1}
		var ms []float64
		for i := 0; i < 20; i++ {
			r := runCell(c, "sim", cfg.seed, cfg.pls.get(small.images, 1, 1), nil, -1)
			ms = append(ms, float64(r.setupNS())/1e6)
		}
		m["pgas.world_setup_ms.64"] = median(ms)
	},
}

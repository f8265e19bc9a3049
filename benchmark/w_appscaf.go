package main

import (
	"fmt"
	"strings"
	"time"

	"cafteams/caf"
	"cafteams/internal/hpl"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// apps-caf: application kernels through the public caf API only — the
// heat2d and CG communication skeletons, blocking and overlapped, the
// alltoall transpose, and HPL — each under the hierarchy-aware runtime and
// under caf.RunFlat. It drives the same core/pgas layers as coll-sweep
// differently: the split-phase progress engine instead of blocking calls,
// bulk Put bandwidth beside flag notifies, FormTeam/GridTeams.

// appImage is the benchmark's wrapper around *caf.Image: every call into
// the caf layer goes through it, so the traced pass can record one
// modeled-clock span per call. rt is nil on untraced ranks and passes.
type appImage struct {
	*caf.Image
	rt *rankTrace
}

func (a *appImage) span(name string, call func()) {
	a.rt.begin(name, a.Now())
	call()
	a.rt.done(a.Now())
}

func (a *appImage) syncAll()              { a.span("caf.SyncAll", a.Image.SyncAll) }
func (a *appImage) syncMemory()           { a.span("caf.SyncMemory", a.Image.SyncMemory) }
func (a *appImage) compute(flops float64) { a.span("caf.Compute", func() { a.Image.Compute(flops) }) }
func (a *appImage) coSum(x []float64)     { a.span("caf.CoSum", func() { a.Image.CoSum(x) }) }
func (a *appImage) coMax(x []float64)     { a.span("caf.CoMax", func() { a.Image.CoMax(x) }) }
func (a *appImage) coScan(x []float64)    { a.span("caf.CoScan", func() { a.Image.CoScan(x, true) }) }
func (a *appImage) coAlltoall(s, r []float64) {
	a.span("caf.CoAlltoall", func() { a.Image.CoAlltoall(s, r) })
}
func (a *appImage) coBroadcast(x []float64, src int) {
	a.span("caf.CoBroadcast", func() { a.Image.CoBroadcast(x, src) })
}
func (a *appImage) put(co *caf.Coarray, target, off int, src []float64) {
	a.span("caf.Put", func() { co.Put(a.Image, target, off, src) })
}
func (a *appImage) coSumAsync(x []float64) (h *caf.Handle) {
	a.span("caf.CoSumAsync", func() { h = a.Image.CoSumAsync(x) })
	return h
}
func (a *appImage) coMaxAsync(x []float64) (h *caf.Handle) {
	a.span("caf.CoMaxAsync", func() { h = a.Image.CoMaxAsync(x) })
	return h
}
func (a *appImage) wait(h *caf.Handle) { a.span("caf.Handle.Wait", h.Wait) }

// spanPhase maps a caf call span to its phase of caf.modeled_share.
func spanPhase(name string) string {
	switch {
	case name == "caf.Compute":
		return "compute"
	case name == "caf.Put":
		return "put"
	case name == "caf.SyncAll" || name == "caf.SyncMemory":
		return "sync"
	case name == "caf.Handle.Wait":
		return "wait"
	case strings.HasPrefix(name, "caf.Co"):
		return "collective"
	}
	return ""
}

// appSizes are the kernels' fixed sizes.
type appSizes struct {
	spec                     string
	heatW, heatH, heatSweeps int
	cgElems, cgIters         int
	trRows, trIters          int
	hplN, hplNB, hplP, hplQ  int
}

func appSizesFor(cfg *config) appSizes {
	if cfg.tiny {
		return appSizes{spec: "8(2)", heatW: 16, heatH: 4, heatSweeps: 4, cgElems: 64, cgIters: 4,
			trRows: 2, trIters: 2, hplN: 64, hplNB: 16, hplP: 2, hplQ: 4}
	}
	return appSizes{spec: "64(8)", heatW: 64, heatH: 16, heatSweeps: 60, cgElems: 1024, cgIters: 40,
		trRows: 8, trIters: 10, hplN: 2048, hplNB: 64, hplP: 8, hplQ: 8}
}

// appRun is one application run of a pass.
type appRun struct {
	name       string // e.g. "heat2d.overlapped", "transpose.bruck", "hpl.2level"
	flat       bool   // under caf.RunFlat (HPL: the one-level variant)
	ops        int    // application iterations, or HPL panel steps
	failed     int
	modeledNS  int64
	intra      int64
	inter      int64
	interBytes int64
	events     int64 // HPL only: caf.Run does not expose its environment
	setupNS    int64
	runNS      int64
	gflops     float64
	err        string
}

func (r *appRun) key() string {
	if r.flat {
		return r.name + "/flat"
	}
	return r.name + "/hier"
}

// runCAF runs kernel on every image under caf.Run or caf.RunFlat. kernel
// returns how many of its ops produced a wrong result on this image; an op
// counts as failed once, however many images saw it fail.
func runCAF(sz appSizes, name string, flat bool, ops int, cfgCAF caf.Config, tr *tracer, parent int,
	kernel func(a *appImage) (badOps int)) appRun {
	run := appRun{name: name, flat: flat, ops: ops}
	start := time.Now()
	hs := tr.hostNow()
	ws := tr.open("world "+run.key(), clockHost, "driver", parent, hs)
	// Sim images run one at a time, handing control over through channels,
	// so the body may write these without further synchronization.
	var entered int64 // host ns at which image 1's body began
	bad := 0
	cfgCAF.Spec = sz.spec
	cfgCAF.Backend = caf.BackendSim
	body := func(im *caf.Image) {
		if im.ThisImage() == 1 {
			entered = time.Since(start).Nanoseconds()
		}
		a := &appImage{Image: im, rt: tr.forRank(run.key(), ws, im.ThisImage()-1, im.NumImages())}
		bad = max(bad, kernel(a))
	}
	var rep caf.Report
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		if flat {
			rep, err = caf.RunFlat(cfgCAF, body)
		} else {
			rep, err = caf.Run(cfgCAF, body)
		}
	}()
	total := time.Since(start).Nanoseconds()
	run.setupNS = entered
	run.runNS = total - run.setupNS
	run.modeledNS = rep.Elapsed
	run.intra, run.inter, run.interBytes = rep.Stats.IntraMsgs, rep.Stats.InterMsgs, rep.Stats.InterBytes
	run.failed = bad
	if err != nil {
		run.err, run.failed = err.Error(), ops
	}
	if tr != nil {
		tr.add("setup", clockHost, "driver", ws, hs, hs+run.setupNS)
		tr.add("run", clockHost, "driver", ws, hs+run.setupNS, tr.hostNow())
		tr.end(ws, tr.hostNow())
	}
	return run
}

// heat2d is the stencil's communication skeleton: per sweep a halo exchange
// (one-sided puts into the neighbours' ghost rows, sync memory, barrier), the
// sweep's compute, and a residual co_max that the overlapped mode completes
// one sweep late. Boundary rows and residuals are seeded integers, so the
// ghost rows and the reduced residual have an exact serial reference.
func heat2d(sz appSizes, seed int64, overlap bool) func(a *appImage) int {
	w, h, sweeps := sz.heatW, sz.heatH, sz.heatSweeps
	return func(a *appImage) int {
		me, n := a.ThisImage(), a.NumImages()
		cur := a.NewCoarray("cur", (h+2)*w)
		curL := cur.Local(a.Image)
		a.syncAll()
		bad := 0
		maxDiff := []float64{0}
		var pending *caf.Handle
		pendingSweep := -1
		wantMax := func(s int) float64 { // serial reference of sweep s's residual
			m := inputValue(seed, 3, 1, s, 0)
			for r := 2; r <= n; r++ {
				m = max(m, inputValue(seed, 3, r, s, 0))
			}
			return m
		}
		for s := 0; s < sweeps; s++ {
			ok := true
			for c := 0; c < w; c++ { // this sweep's boundary rows
				curL[1*w+c] = inputValue(seed, 1, me, s, c)
				curL[h*w+c] = inputValue(seed, 2, me, s, c)
			}
			if me > 1 {
				a.put(cur, me-1, (h+1)*w, curL[w:2*w])
			}
			if me < n {
				a.put(cur, me+1, 0, curL[h*w:(h+1)*w])
			}
			a.syncMemory()
			a.syncAll()
			for c := 0; c < w; c++ { // the neighbours' rows must have landed
				if me < n && curL[(h+1)*w+c] != inputValue(seed, 1, me+1, s, c) {
					ok = false
				}
				if me > 1 && curL[c] != inputValue(seed, 2, me-1, s, c) {
					ok = false
				}
			}
			a.compute(float64(4 * h * (w - 2)))
			if pending != nil {
				a.wait(pending)
				pending = nil
				if maxDiff[0] != wantMax(pendingSweep) {
					ok = false
				}
			}
			maxDiff[0] = inputValue(seed, 3, me, s, 0)
			if overlap {
				pending, pendingSweep = a.coMaxAsync(maxDiff), s
			} else {
				a.coMax(maxDiff)
				if maxDiff[0] != wantMax(s) {
					ok = false
				}
			}
			a.syncAll()
			if !ok {
				bad++
			}
		}
		if pending != nil {
			a.wait(pending)
			if maxDiff[0] != wantMax(pendingSweep) {
				bad++
			}
		}
		return bad
	}
}

// cg is the solver's iteration skeleton: the matvec's compute, a blocking
// p·Ap co_sum, then the r·r co_sum overlapped with the x update. The local
// partial sums are seeded integers, so both global sums are exact.
func cg(sz appSizes, seed int64, overlap bool) func(a *appImage) int {
	nElems, iters := sz.cgElems, sz.cgIters
	return func(a *appImage) int {
		me, n := a.ThisImage(), a.NumImages()
		x := make([]float64, nElems)
		want := func(salt, it int) float64 {
			s := 0.0
			for r := 1; r <= n; r++ {
				s += inputValue(seed, salt, r, it, 0)
			}
			return s
		}
		a.syncAll()
		bad := 0
		for it := 0; it < iters; it++ {
			a.compute(float64(6 * nElems)) // Ap
			pap := []float64{inputValue(seed, 4, me, it, 0)}
			a.compute(float64(2 * nElems))
			a.coSum(pap)
			ok := pap[0] == want(4, it)
			a.compute(float64(4 * nElems)) // r update and local r·r
			rr := []float64{inputValue(seed, 5, me, it, 0)}
			var pending *caf.Handle
			if overlap {
				pending = a.coSumAsync(rr)
			}
			for i := range x { // the x update does not depend on the reduction
				x[i] += pap[0]
			}
			a.compute(float64(2 * nElems))
			if overlap {
				a.wait(pending)
			} else {
				a.coSum(rr)
			}
			if rr[0] != want(5, it) {
				ok = false
			}
			a.syncAll()
			if !ok {
				bad++
			}
		}
		return bad
	}
}

// transpose is the distributed matrix transpose of examples/transpose: the
// band offset by an exclusive co_scan, then one alltoall of b×b tiles per
// iteration, the assembled band checked against the closed form.
func transpose(sz appSizes) func(a *appImage) int {
	b, iters := sz.trRows, sz.trIters
	return func(a *appImage) int {
		p := a.NumImages()
		m := p * b
		cnt := []float64{float64(b)}
		a.coScan(cnt)
		off := int(cnt[0])
		if a.ThisImage() == 1 {
			off = 0 // an exclusive scan leaves image 1's buffer unchanged
		}
		send := make([]float64, p*b*b)
		recv := make([]float64, p*b*b)
		bad := 0
		for it := 0; it < iters; it++ {
			// A[r][c] = r*M + c + it, tiled by destination image.
			for j := 0; j < p; j++ {
				for r := 0; r < b; r++ {
					for c := 0; c < b; c++ {
						send[j*b*b+r*b+c] = float64((off+r)*m + j*b + c + it)
					}
				}
			}
			a.coAlltoall(send, recv)
			ok := off == (a.ThisImage()-1)*b
			for s := 0; s < p && ok; s++ { // tile s holds rows of A-transpose
				for r := 0; r < b; r++ {
					for c := 0; c < b; c++ {
						if recv[s*b*b+r*b+c] != float64((s*b+r)*m+off+c+it) {
							ok = false
						}
					}
				}
			}
			if !ok {
				bad++
			}
		}
		return bad
	}
}

// runHPL runs the distributed LU through hpl.Run on its own world, with the
// two UHCAF variants of the paper's Figure 1.
func runHPL(sz appSizes, v hpl.Variant, flat bool, tr *tracer, parent int) appRun {
	name := "hpl.2level"
	if flat {
		name = "hpl.1level"
	}
	run := appRun{name: name, flat: flat, ops: (sz.hplN + sz.hplNB - 1) / sz.hplNB}
	hs := tr.hostNow()
	ws := tr.open("world "+run.key(), clockHost, "driver", parent, hs)
	start := time.Now()
	topo, err := topology.ParseSpec(sz.spec)
	var w *pgas.World
	env := sim.NewEnv()
	stats := trace.New()
	if err == nil {
		w, err = pgas.NewWorld(env, v.Model(machine.PaperCluster()), topo, stats)
	}
	run.setupNS = time.Since(start).Nanoseconds()
	if err != nil {
		run.err, run.failed = err.Error(), run.ops
		return run
	}
	var res hpl.Result
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.Err = fmt.Errorf("panic: %v", r)
			}
		}()
		// The matrix seed decides the pivot rows and with them the swap
		// traffic; it stays at bench_test.go's 1 so that HPL's modeled time
		// is a function of the workload alone.
		res = hpl.Run(w, hpl.Config{N: sz.hplN, NB: sz.hplNB, P: sz.hplP, Q: sz.hplQ, Seed: 1, Level: v.Level})
	}()
	run.runNS = time.Since(start).Nanoseconds() - run.setupNS
	run.modeledNS = res.FactTime
	run.gflops = res.GFlops
	run.events = env.Events()
	sn := stats.Snapshot()
	run.intra, run.inter, run.interBytes = sn.IntraMsgs, sn.InterMsgs, sn.InterBytes
	if res.Err != nil {
		run.err, run.failed = res.Err.Error(), run.ops
	} else if res.FactTime <= 0 {
		run.err, run.failed = "hpl: non-positive factorization time", run.ops
	}
	if tr != nil {
		tr.add("setup", clockHost, "driver", ws, hs, hs+run.setupNS)
		tr.add("run", clockHost, "driver", ws, hs+run.setupNS, tr.hostNow())
		tr.end(ws, tr.hostNow())
	}
	return run
}

func appsPass(cfg *config, tr *tracer, repSpan int) *pass {
	sz := appSizesFor(cfg)
	p := newPass()
	var runs []appRun
	add := func(r appRun) {
		runs = append(runs, r)
		p.ops += r.ops
		p.failed += r.failed
		p.setupNS += r.setupNS
		p.runNS += r.runNS
		p.events += r.events
		if r.events > 0 {
			p.eventRunNS += r.runNS
		}
		p.intra += r.intra
		p.inter += r.inter
		p.interBytes += r.interBytes
		if r.err != "" {
			p.errs = append(p.errs, r.key()+": "+r.err)
		} else if r.failed > 0 {
			p.errs = append(p.errs, fmt.Sprintf("%s: %d of %d ops differ from the serial reference", r.key(), r.failed, r.ops))
		}
		p.mark()
	}
	for _, flat := range []bool{false, true} {
		for _, overlap := range []bool{false, true} {
			mode := "blocking"
			if overlap {
				mode = "overlapped"
			}
			add(runCAF(sz, "heat2d."+mode, flat, sz.heatSweeps, caf.Config{}, tr, repSpan, heat2d(sz, cfg.seed, overlap)))
			add(runCAF(sz, "cg."+mode, flat, sz.cgIters, caf.Config{}, tr, repSpan, cg(sz, cfg.seed, overlap)))
		}
		// The runtime's own alltoall choice: 2level under caf.Run, the flat
		// default under caf.RunFlat.
		add(runCAF(sz, "transpose", flat, sz.trIters, caf.Config{}, tr, repSpan, transpose(sz)))
	}
	for _, alg := range []string{"pairwise", "bruck", "2level"} {
		add(runCAF(sz, "transpose."+alg, false, sz.trIters,
			caf.Config{}.WithAlgorithm(caf.KindAlltoall, alg), tr, repSpan, transpose(sz)))
	}
	variants := hpl.PaperVariants() // [0] UHCAF 2level, [1] UHCAF 1level
	add(runHPL(sz, variants[0], false, tr, repSpan))
	add(runHPL(sz, variants[1], true, tr, repSpan))
	p.extra = runs
	return p
}

func appsMetrics(p *pass, tr *tracer, m metricSet) {
	runs := p.extra.([]appRun)
	by := map[string]*appRun{}
	var perOp []float64
	var hostHPL float64
	for i := range runs {
		r := &runs[i]
		by[r.key()] = r
		if r.modeledNS > 0 {
			perOp = append(perOp, float64(r.modeledNS)/float64(r.ops)/1e3)
		}
		if strings.HasPrefix(r.name, "hpl.") {
			hostHPL += float64(r.setupNS+r.runNS) / 1e9
		}
	}
	ratio := func(num, den string) float64 {
		a, b := by[num], by[den]
		if a == nil || b == nil || a.modeledNS <= 0 || b.modeledNS <= 0 {
			return 0
		}
		return float64(a.modeledNS) / float64(b.modeledNS)
	}
	m["modeled_us_geomean"] = geomean(perOp)
	m["hier_speedup"] = geomean(positive(
		ratio("heat2d.blocking/flat", "heat2d.blocking/hier"),
		ratio("heat2d.overlapped/flat", "heat2d.overlapped/hier"),
		ratio("cg.blocking/flat", "cg.blocking/hier"),
		ratio("cg.overlapped/flat", "cg.overlapped/hier"),
		ratio("transpose/flat", "transpose/hier"),
		ratio("hpl.1level/flat", "hpl.2level/hier")))
	m["overlap_speedup"] = geomean(positive(
		ratio("heat2d.blocking/hier", "heat2d.overlapped/hier"),
		ratio("cg.blocking/hier", "cg.overlapped/hier")))

	for _, app := range []string{"heat2d", "cg"} {
		for _, mode := range []string{"blocking", "overlapped"} {
			if r := by[app+"."+mode+"/hier"]; r != nil {
				m["caf.modeled_ms."+app+"."+mode] = float64(r.modeledNS) / 1e6
			}
		}
	}
	for _, alg := range []string{"pairwise", "bruck", "2level"} {
		if r := by["transpose."+alg+"/hier"]; r != nil {
			m["caf.modeled_us.transpose."+alg] = float64(r.modeledNS) / float64(r.ops) / 1e3
		}
	}
	if r := by["hpl.2level/hier"]; r != nil {
		m["hpl.gflops.2level"] = r.gflops
	}
	if r := by["hpl.1level/flat"]; r != nil {
		m["hpl.gflops.1level"] = r.gflops
	}
	m["hpl.host_s"] = hostHPL

	if tr == nil {
		return
	}
	// Image 1's modeled self time per phase over the first traced rep's caf
	// runs (every rep's are identical), as shares of their sum.
	self := tr.selfTimes()
	phase := map[string]float64{}
	total := 0.0
	for i, s := range tr.spans {
		if s.clock != clockModeled || s.rep != 1 || !strings.HasSuffix(s.track, "/rank0") {
			continue
		}
		if ph := spanPhase(s.name); ph != "" {
			phase[ph] += float64(self[i])
			total += float64(self[i])
		}
	}
	for ph, ns := range phase {
		if total > 0 {
			m["caf.modeled_share."+ph] = ns / total
		}
	}
}

func positive(xs ...float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}

var appsCAF = &workload{
	name: "apps-caf",
	why:  "heat2d, CG, transpose and HPL through the public caf API: split-phase progress engine, bulk puts, team formation; a gain for blocking collectives that costs these paths shows here",
	prepare: func(cfg *config) func(*tracer, int) *pass {
		return func(tr *tracer, repSpan int) *pass { return appsPass(cfg, tr, repSpan) }
	},
	metrics: func(cfg *config, p *pass, tr *tracer, m metricSet) { appsMetrics(p, tr, m) },
	golden: func(p *pass) []goldenRow {
		var rows []goldenRow
		for _, r := range p.extra.([]appRun) {
			rows = append(rows, goldenRow{r.key(), []int64{r.modeledNS, r.intra, r.inter, int64(r.ops)}})
		}
		return rows
	},
	probes: func(cfg *config, m metricSet) {
		// Modeled cost of forming the row and column teams of the HPL grid.
		sz := appSizesFor(cfg)
		var formNS int64
		_, err := caf.Run(caf.Config{Spec: sz.spec, Backend: caf.BackendSim}, func(im *caf.Image) {
			t0 := im.Now()
			if _, _, err := im.GridTeams(sz.hplP, sz.hplQ); err != nil {
				return
			}
			if im.ThisImage() == 1 {
				formNS = im.Now() - t0
			}
		})
		if err == nil {
			m["team.form_modeled_us.64x8"] = float64(formNS) / 1e3
		}
	},
}

package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"cafteams/internal/coll"
	"cafteams/internal/core"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// shape is one image placement: the paper's "images(nodes)" notation, or an
// explicit multi-level machine for the 4096-image cells.
type shape struct {
	label   string
	images  int
	perNode int // images per node; every shape here fills its nodes evenly
	build   func() (*topology.Topology, error)
}

func specShape(spec string) shape {
	topo, err := topology.ParseSpec(spec)
	if err != nil {
		panic(err) // the specs are literals of this package
	}
	return shape{label: spec, images: topo.NumImages(), perNode: topo.NumImages() / topo.NumNodes(),
		build: func() (*topology.Topology, error) { return topology.ParseSpec(spec) }}
}

// blockShape is nodes × 2 sockets × 4 cores with block placement, every core
// hosting an image: the multi-level machine of the scale studies.
func blockShape(nodes int) shape {
	images := nodes * 8
	return shape{label: fmt.Sprintf("%dx2x4", nodes), images: images, perNode: 8,
		build: func() (*topology.Topology, error) {
			return topology.New(nodes, 2, 4, images, topology.PlaceBlock)
		}}
}

// Pseudo algorithm names a cell may carry besides a registry name.
const (
	algAuto    = core.AlgAuto // the size- and shape-keyed rule (core.AllAuto under LevelAuto)
	algDefault = "default"    // what the hierarchy level alone picks (LevelAuto, zero Tuning)
)

// cell is one measured point of a collective workload: eps episodes of one
// algorithm of one kind on one shape at one payload size, in a fresh world.
type cell struct {
	kind    core.Kind
	alg     string
	shape   shape
	elems   int
	eps     int
	conduit machine.Conduit
	// fixedRoot pins rooted kinds to root 0 (the paper's headline pairs
	// keep the settings of the repository's bench_test.go); otherwise the
	// root rotates over the episodes (see rootOf).
	fixedRoot bool
	group     string // "registry", "auto", "paper", "scale", "native"
	// heapProbe asks runCell to report the live heap (after a GC) while the
	// finished world is still reachable.
	heapProbe bool
}

func (c *cell) key() string {
	size := "-"
	if c.kind != core.KindBarrier {
		size = fmt.Sprint(c.elems)
	}
	k := fmt.Sprintf("%s/%s@%s/%s", c.kind, c.alg, c.shape.label, size)
	if c.conduit != machine.ConduitGASNetRDMA {
		k += "/" + c.conduit.String()
	}
	return k
}

// rootOf rotates the root of the rooted kinds over the episodes: episode 0
// roots at a node leader, episode 1 at a leader's neighbour on another node,
// and so on, so every cell sees leader and non-leader roots. The schedule is
// fixed, not seeded: where a collective roots moves its modeled time, and the
// modeled numbers are meant to be pure functions of the workload (a seeded
// root moved hier_speedup on scale-4k between 4.36 and 6.24).
func (c *cell) rootOf(ep int) int {
	if c.fixedRoot {
		return 0
	}
	nodes := c.shape.images / c.shape.perNode
	return (ep*3+1)%nodes*c.shape.perNode + ep%c.shape.perNode
}

// cellResult is what one run of a cell measured. Everything but the host
// times (and, on the native backend, clockNS) is a pure function of the cell.
type cellResult struct {
	c *cell

	clockNS    int64 // World.Run's end time: simulated ns on sim, wall ns on native
	events     int64
	intra      int64
	inter      int64
	interBytes int64
	nodes      int
	nicBusy    int64 // summed over nodes, simulated ns
	progBusy   int64
	membusBusy int64

	// Host nanoseconds. Set-up is topology + world + launch + every
	// image's team.Initial; run is the rest of driving the world.
	topoNS, worldNS, launchNS, initNS, runNS int64

	failed int // episodes whose result was wrong on some image (eps if the world died)
	err    string

	heapLive uint64 // heapProbe cells only
}

func (r *cellResult) setupNS() int64 { return r.topoNS + r.worldNS + r.launchNS + r.initNS }

// perOpNS is the backend-clock time per episode, the convention of
// internal/bench and teamsbench (end time over episodes).
func (r *cellResult) perOpNS() float64 { return float64(r.clockNS) / float64(r.c.eps) }

// dispatch sends one episode either to a named registry algorithm or
// through a core.Policy (the auto rule, or the hierarchy default).
type dispatch struct {
	alg    string
	pol    core.Policy
	byName bool
}

func newDispatch(alg string) dispatch {
	switch alg {
	case algAuto:
		return dispatch{pol: core.Policy{Level: core.LevelAuto, Tuning: core.AllAuto()}}
	case algDefault:
		return dispatch{pol: core.Policy{Level: core.LevelAuto}}
	default:
		return dispatch{alg: alg, byName: true}
	}
}

// runCell builds a fresh world for c on the named backend, runs its
// episodes, checks every image's result of every episode bitwise against the
// serial reference, and reports what it measured. A world that deadlocks or
// panics is recovered here and fails all of the cell's episodes; it never
// aborts the run.
func runCell(c *cell, backend string, seed int64, pl *payload, tr *tracer, parent int) (res cellResult) {
	res.c = c
	t0 := time.Now()
	topo, err := c.shape.build()
	if err != nil {
		res.failed, res.err = c.eps, err.Error()
		return res
	}
	n := topo.NumImages()
	res.nodes = topo.NumNodes()
	res.topoNS = time.Since(t0).Nanoseconds()

	t1 := time.Now()
	model := machine.PaperCluster().WithConduit(c.conduit)
	stats := trace.New()
	var w *pgas.World
	var env *sim.Env
	if backend == "native" {
		w = pgas.NewNativeWorld(model, topo, stats)
		// A native image that panics would take the process down;
		// contained, it is an image failure the cell reports.
		w.ContainPanics()
	} else {
		env = sim.NewEnv()
		if w, err = pgas.NewWorld(env, model, topo, stats); err != nil {
			res.failed, res.err = c.eps, err.Error()
			return res
		}
	}
	res.worldNS = time.Since(t1).Nanoseconds()

	var initNS atomic.Int64
	bad := make([]atomic.Bool, c.eps)
	// Barrier check: nobody may leave episode ep before everybody arrived.
	var arrive, leave []int64
	if c.kind == core.KindBarrier {
		arrive, leave = make([]int64, c.eps*n), make([]int64, c.eps*n)
	}
	d := newDispatch(c.alg)
	wname := c.key()
	body := func(im *pgas.Image) {
		ti := time.Now()
		v := team.Initial(w, im)
		// Sim images run one at a time, so their team set-up times add up;
		// native images run at once, and rank 0's stands for all.
		if env != nil || im.Rank() == 0 {
			initNS.Add(time.Since(ti).Nanoseconds())
		}
		rank, e := v.Rank, c.elems
		rt := tr.forRank(wname, parent, rank, n)
		buf := make([]float64, e)
		var wide, wide2 []float64
		switch c.kind {
		case core.KindAllgather:
			wide = make([]float64, n*e)
		case core.KindAlltoall:
			wide, wide2 = make([]float64, n*e), make([]float64, n*e)
		}
		for ep := 0; ep < c.eps; ep++ {
			root := c.rootOf(ep)
			ok := true
			rt.begin("episode", im.Now())
			switch c.kind {
			case core.KindBarrier:
				arrive[ep*n+rank] = im.Now()
				rt.begin("core.RunBarrier", im.Now())
				d.barrier(v)
				rt.done(im.Now())
				leave[ep*n+rank] = im.Now()
			case core.KindAllreduce:
				copy(buf, pl.input(ep, rank))
				rt.begin("core.RunAllreduce", im.Now())
				d.allreduce(v, buf)
				rt.done(im.Now())
				ok = same(buf, pl.sum[ep])
			case core.KindReduceTo:
				copy(buf, pl.input(ep, rank))
				rt.begin("core.RunReduceTo", im.Now())
				d.reduceTo(v, root, buf)
				rt.done(im.Now())
				ok = rank != root || same(buf, pl.sum[ep])
			case core.KindBroadcast:
				copy(buf, pl.input(ep, rank))
				rt.begin("core.RunBroadcast", im.Now())
				d.broadcast(v, root, buf)
				rt.done(im.Now())
				ok = same(buf, pl.input(ep, root))
			case core.KindAllgather:
				copy(buf, pl.input(ep, rank))
				rt.begin("core.RunAllgather", im.Now())
				d.allgather(v, buf, wide)
				rt.done(im.Now())
				ok = same(wide, pl.in[ep])
			case core.KindScatter:
				// send is significant only at the root.
				var send []float64
				if rank == root {
					if wide == nil {
						wide = make([]float64, n*e)
					}
					copy(wide, pl.in[ep])
					send = wide
				}
				rt.begin("core.RunScatter", im.Now())
				d.scatter(v, root, send, buf)
				rt.done(im.Now())
				ok = same(buf, pl.input(ep, rank))
			case core.KindGather:
				copy(buf, pl.input(ep, rank))
				var recv []float64
				if rank == root {
					if wide == nil {
						wide = make([]float64, n*e)
					}
					recv = wide
				}
				rt.begin("core.RunGather", im.Now())
				d.gather(v, root, buf, recv)
				rt.done(im.Now())
				ok = rank != root || same(recv, pl.in[ep])
			case core.KindAlltoall:
				copy(wide, pl.a2aSend[ep][rank*n*e:(rank+1)*n*e])
				rt.begin("core.RunAlltoall", im.Now())
				d.alltoall(v, wide, wide2)
				rt.done(im.Now())
				ok = same(wide2, pl.a2aRecv[ep][rank*n*e:(rank+1)*n*e])
			case core.KindScan:
				exclusive := ep%2 == 1
				copy(buf, pl.input(ep, rank))
				rt.begin("core.RunScan", im.Now())
				d.scan(v, buf, exclusive)
				rt.done(im.Now())
				ok = same(buf, pl.scanRef(ep, rank, exclusive))
			}
			rt.done(im.Now())
			if !ok {
				bad[ep].Store(true)
			}
		}
	}

	t2 := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.err = fmt.Sprint(r)
			}
		}()
		if env == nil {
			res.clockNS = w.Run(body) // starting the goroutines is part of the run on native
			return
		}
		w.Launch(body)
		res.launchNS = time.Since(t2).Nanoseconds()
		if err := env.Run(0); err != nil {
			res.err = err.Error()
		}
		res.clockNS = env.Now()
		res.events = env.Events()
	}()
	res.initNS = initNS.Load()
	res.runNS = time.Since(t2).Nanoseconds() - res.launchNS - res.initNS
	if res.err == "" && len(w.Failures()) > 0 {
		res.err = fmt.Sprintf("%d image(s) failed: %v", len(w.Failures()), w.Failures()[0])
	}

	sn := stats.Snapshot()
	res.intra, res.inter, res.interBytes = sn.IntraMsgs, sn.InterMsgs, sn.InterBytes
	if cl := w.Cluster(); cl != nil {
		for i := 0; i < cl.Nodes(); i++ {
			res.nicBusy += cl.NICs()[i].BusyTime()
			res.progBusy += cl.ProgressEngines()[i].BusyTime()
			res.membusBusy += cl.Membuses()[i].BusyTime()
		}
	}

	if c.heapProbe {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		res.heapLive = ms.HeapAlloc
		runtime.KeepAlive(w)
	}

	if res.err != "" {
		res.failed = c.eps
		return res
	}
	for ep := 0; ep < c.eps; ep++ {
		if c.kind == core.KindBarrier {
			lastIn, firstOut := arrive[ep*n], leave[ep*n]
			for r := 1; r < n; r++ {
				lastIn = max(lastIn, arrive[ep*n+r])
				firstOut = min(firstOut, leave[ep*n+r])
			}
			if firstOut < lastIn {
				bad[ep].Store(true)
			}
		}
		if bad[ep].Load() {
			res.failed++
		}
	}
	return res
}

func (d dispatch) barrier(v *team.View) {
	if d.byName {
		core.RunBarrier(d.alg, v)
	} else {
		d.pol.Barrier(v)
	}
}

func (d dispatch) allreduce(v *team.View, buf []float64) {
	if d.byName {
		core.RunAllreduce(d.alg, v, buf, coll.Sum)
	} else {
		core.PolicyAllreduce(d.pol, v, buf, coll.Sum)
	}
}

func (d dispatch) reduceTo(v *team.View, root int, buf []float64) {
	if d.byName {
		core.RunReduceTo(d.alg, v, root, buf, coll.Sum)
	} else {
		core.PolicyReduceTo(d.pol, v, root, buf, coll.Sum)
	}
}

func (d dispatch) broadcast(v *team.View, root int, buf []float64) {
	if d.byName {
		core.RunBroadcast(d.alg, v, root, buf)
	} else {
		core.PolicyBroadcast(d.pol, v, root, buf)
	}
}

func (d dispatch) allgather(v *team.View, mine, out []float64) {
	if d.byName {
		core.RunAllgather(d.alg, v, mine, out)
	} else {
		core.PolicyAllgather(d.pol, v, mine, out)
	}
}

func (d dispatch) scatter(v *team.View, root int, send, recv []float64) {
	if d.byName {
		core.RunScatter(d.alg, v, root, send, recv)
	} else {
		core.PolicyScatter(d.pol, v, root, send, recv)
	}
}

func (d dispatch) gather(v *team.View, root int, send, recv []float64) {
	if d.byName {
		core.RunGather(d.alg, v, root, send, recv)
	} else {
		core.PolicyGather(d.pol, v, root, send, recv)
	}
}

func (d dispatch) alltoall(v *team.View, send, recv []float64) {
	if d.byName {
		core.RunAlltoall(d.alg, v, send, recv)
	} else {
		core.PolicyAlltoall(d.pol, v, send, recv)
	}
}

func (d dispatch) scan(v *team.View, buf []float64, exclusive bool) {
	if d.byName {
		core.RunScan(d.alg, v, buf, coll.Sum, exclusive)
	} else {
		core.PolicyScan(d.pol, v, buf, coll.Sum, exclusive)
	}
}

// bigWorld is the image count from which a finished world's memory is
// returned to the operating system before the next world is built, as the
// repository's own scale study does. Without it the next world's per-member
// state is carved out of recycled spans the allocator must clear page by page
// — ten times slower than fresh zero pages, and resident where the fresh
// pages were only reserved.
const bigWorld = 1024

// cellsPerPiece is how many small worlds make one piece of a rep's host time
// (see pass.mark): a piece of a tenth of a second or so is shorter than the
// host's bursts and long enough to hold its share of the collector's cycles,
// which a piece of one 10 ms world has in some reps and not in others.
const cellsPerPiece = 16

// buildPayloads generates the cells' seeded inputs and serial references
// ahead of the first rep, so no rep pays for them.
func buildPayloads(cfg *config, cells []*cell) {
	for _, c := range cells {
		pl := cfg.pls.get(c.shape.images, c.elems, c.eps)
		if c.kind == core.KindAlltoall {
			pl.alltoall()
		}
	}
}

// cellPass runs every cell once, in fresh worlds, and sums the pass.
func cellPass(cfg *config, cells []*cell, backend string, tr *tracer, repSpan int) *pass {
	p := newPass()
	for i, c := range cells {
		start := tr.hostNow()
		ws := tr.open("world "+c.key(), clockHost, "driver", repSpan, start)
		r := runCell(c, backend, cfg.seed, cfg.pls.get(c.shape.images, c.elems, c.eps), tr, ws)
		if tr != nil {
			mid := start + r.setupNS()
			tr.add("setup", clockHost, "driver", ws, start, mid)
			tr.add("run", clockHost, "driver", ws, mid, tr.hostNow())
			tr.end(ws, tr.hostNow())
		}
		p.addCell(r)
		if c.shape.images >= bigWorld {
			debug.FreeOSMemory()
			p.mark()
		} else if (i+1)%cellsPerPiece == 0 {
			p.mark()
		}
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "%-44s %12.3f us/op  setup %8.2f ms  run %9.2f ms  %9d events  failed %d\n",
				c.key(), r.perOpNS()/1e3, float64(r.setupNS())/1e6, float64(r.runNS)/1e6, r.events, r.failed)
		}
	}
	return p
}

func (p *pass) addCell(r cellResult) {
	p.cells = append(p.cells, r)
	p.ops += r.c.eps
	p.failed += r.failed
	p.setupNS += r.setupNS()
	p.runNS += r.runNS
	p.events += r.events
	if r.events > 0 {
		p.eventRunNS += r.runNS
	}
	p.intra += r.intra
	p.inter += r.inter
	p.interBytes += r.interBytes
	if r.err != "" {
		p.errs = append(p.errs, r.c.key()+": "+r.err)
	} else if r.failed > 0 {
		p.errs = append(p.errs, fmt.Sprintf("%s: %d of %d episodes differ from the serial reference",
			r.c.key(), r.failed, r.c.eps))
	}
}

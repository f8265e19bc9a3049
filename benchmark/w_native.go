package main

import (
	"fmt"

	"cafteams/internal/core"
)

// native-sweep: the native backend — images are real goroutines, the clock
// is the wall. The hierarchy-default algorithm of each of the nine kinds at
// 128 elems, plus three transport primitives, on 2(1), 4(2) and 8(2). There
// is no sim kernel and no sim transport here at all: a kernel or
// simbackend.go optimisation predicts no change, while a coll/core CPU-path
// change (combine, copies, allocation) or a nativebackend.go change shows
// only here. Beyond 2(1) the images oversubscribe a 2-core machine, so only
// the aggregate is an end-to-end metric; single cells are informational.

const (
	nativeEps    = 450 // episodes per collective cell per rep
	nativeRounds = 900 // rounds per primitive cell per rep
)

type nativeSweepState struct {
	cells []*cell
	prims []primCell
	// perOpUS collects, per cell key, the per-op wall µs of every timed rep;
	// the informational per-kind numbers are medians over it.
	perOpUS map[string][]float64
}

type primCell struct {
	name  string
	shape shape
}

func newNativeSweep(cfg *config) *nativeSweepState {
	shapes := []shape{specShape("2(1)"), specShape("4(2)"), specShape("8(2)")}
	eps := nativeEps
	if cfg.tiny {
		shapes = shapes[:2]
		eps = 3
	}
	st := &nativeSweepState{perOpUS: map[string][]float64{}}
	for _, sh := range shapes {
		for _, k := range core.Kinds() {
			st.cells = append(st.cells, &cell{kind: k, alg: algDefault, shape: sh, elems: 128, eps: eps, group: "native"})
		}
		for _, prim := range []string{primPingpong, primFanout, primPut} {
			st.prims = append(st.prims, primCell{prim, sh})
		}
	}
	return st
}

func (st *nativeSweepState) pass(cfg *config, tr *tracer, repSpan int) *pass {
	p := cellPass(cfg, st.cells, "native", tr, repSpan)
	for i := range p.cells {
		r := &p.cells[i]
		st.perOpUS[r.c.key()] = append(st.perOpUS[r.c.key()], r.perOpNS()/1e3)
	}
	rounds := nativeRounds
	if cfg.tiny {
		rounds = 5
	}
	for _, pc := range st.prims {
		hs := tr.hostNow()
		r := runPrim(pc.name, pc.shape, rounds, "native", cfg.seed)
		tr.add("world "+pc.name+"@"+pc.shape.label, clockHost, "driver", repSpan, hs, tr.hostNow())
		key := pc.name + "@" + pc.shape.label
		st.perOpUS[key] = append(st.perOpUS[key], r.perRoundNS()/1e3)
		p.ops += r.rounds
		p.failed += r.failed
		p.setupNS += r.setupNS
		p.runNS += r.runNS
		if r.err != "" {
			p.errs = append(p.errs, key+": "+r.err)
		} else if r.failed > 0 {
			p.errs = append(p.errs, fmt.Sprintf("%s: %d of %d rounds carried wrong data", key, r.failed, r.rounds))
		}
	}
	p.extra = st
	return p
}

var nativeSweep = &workload{
	name: "native-sweep",
	why:  "native backend, real goroutines and wall clock, no sim kernel or sim transport: shows coll/core CPU-path and nativebackend.go changes only; a sim optimisation predicts no change",
	prepare: func(cfg *config) func(*tracer, int) *pass {
		st := newNativeSweep(cfg)
		buildPayloads(cfg, st.cells)
		return func(tr *tracer, repSpan int) *pass { return st.pass(cfg, tr, repSpan) }
	},
	metrics: func(cfg *config, p *pass, tr *tracer, m metricSet) {
		st := p.extra.(*nativeSweepState)
		last := st.cells[len(st.cells)-1].shape.label // 8(2)
		for _, k := range core.Kinds() {
			c := cell{kind: k, alg: algDefault, shape: shape{label: last}, elems: 128}
			m["core.native_us."+k.String()] = median(st.perOpUS[c.key()])
		}
		first := st.cells[0].shape.label // 2(1)
		m["pgas.native.pingpong_ns"] = 1e3 * median(st.perOpUS[primPingpong+"@"+first])
		m["pgas.native.put_ns.8k"] = 1e3 * median(st.perOpUS[primPut+"@"+first])
		m["pgas.native.fanout_ns"] = 1e3 * median(st.perOpUS[primFanout+"@"+last])
	},
}

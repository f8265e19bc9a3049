package hpl

import (
	"errors"
	"fmt"
	"math"

	"cafteams/internal/coll"
	"cafteams/internal/core"
	"cafteams/internal/linalg"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
)

// Config parameterizes one HPL run.
type Config struct {
	N    int // global problem size
	NB   int // block size
	P, Q int // process grid (P*Q must equal the world size)
	Seed int64
	// Level selects the collective runtime: the paper's two-level
	// methodology, the flat one-level baseline, or the 3-level extension
	// (zero value: Auto, two-level wherever a node hosts several images).
	Level core.Level
	// Real runs the actual arithmetic (and enables Verify); otherwise the
	// phantom engine skips arithmetic while issuing identical
	// communication and charging identical simulated compute time.
	Real bool
	// Verify gathers the factorization on image 0, checks it against the
	// serial blocked factorization, solves, and computes the HPL
	// residual. Requires Real.
	Verify bool
}

// Result reports one run's outcome.
type Result struct {
	N, NB, P, Q int
	FactTime    sim.Time // simulated factorization time
	GFlops      float64  // LuFlops(N) / FactTime
	Residual    float64  // scaled HPL residual (NaN unless verified)
	MaxLUDiff   float64  // max |distributed − serial| factor entry (NaN unless verified)
	Err         error
}

// Verdict is nil for a run that raised no error and whose scaled residual is a
// number below HPL's pass mark of 16 (NaN fails: unverified, or a broken solve).
func (r Result) Verdict() error {
	if r.Err == nil && !(r.Residual < 16) {
		return fmt.Errorf("hpl: residual %.3g, HPL passes below 16", r.Residual)
	}
	return r.Err
}

// maxLoc combines (|value|, row) pairs keeping the largest value, breaking
// ties toward the lower row — matching the serial pivot search order.
var maxLoc = coll.Op[float64]{Name: "maxloc", Combine: func(dst, src []float64) {
	if src[0] > dst[0] || (src[0] == dst[0] && src[1] < dst[1]) {
		dst[0], dst[1] = src[0], src[1]
	}
}}

// ErrSingular reports a zero pivot column.
var ErrSingular = errors.New("hpl: matrix is singular")

// Run executes the distributed factorization on the given world and returns
// the aggregate result. It launches the images itself; the world must be
// fresh (images not yet launched).
func Run(w *pgas.World, cfg Config) Result {
	if cfg.P*cfg.Q != w.NumImages() {
		return Result{Err: fmt.Errorf("hpl: grid %dx%d needs %d images, world has %d",
			cfg.P, cfg.Q, cfg.P*cfg.Q, w.NumImages())}
	}
	if cfg.N <= 0 || cfg.NB <= 0 {
		return Result{Err: fmt.Errorf("hpl: bad N=%d NB=%d", cfg.N, cfg.NB)}
	}
	if cfg.Verify && !cfg.Real {
		return Result{Err: errors.New("hpl: Verify requires Real")}
	}
	res := Result{N: cfg.N, NB: cfg.NB, P: cfg.P, Q: cfg.Q,
		Residual: math.NaN(), MaxLUDiff: math.NaN()}
	var t0, t1 sim.Time
	w.Run(func(im *pgas.Image) {
		st := runImage(w, im, cfg)
		if im.Rank() == 0 {
			t0 = st.start
			res.Err = st.err
			res.Residual = st.residual
			res.MaxLUDiff = st.maxDiff
		}
		if st.end > t1 {
			t1 = st.end
		}
	})
	res.FactTime = t1 - t0
	if res.FactTime > 0 {
		res.GFlops = linalg.LuFlops(cfg.N) / float64(res.FactTime)
	}
	return res
}

// imageState is the per-image outcome.
type imageState struct {
	start, end sim.Time
	err        error
	residual   float64
	maxDiff    float64
}

// runImage is the SPMD body of the solver.
func runImage(w *pgas.World, im *pgas.Image, cfg Config) imageState {
	st := imageState{residual: math.NaN(), maxDiff: math.NaN()}
	pol := core.Policy{Level: cfg.Level}
	v := team.Initial(w, im)
	rowTeam, colTeam, err := core.Grid(v, cfg.P, cfg.Q)
	if err != nil {
		st.err = err
		return st
	}
	d := dist{n: cfg.N, nb: cfg.NB, p: cfg.P, q: cfg.Q,
		pr: colTeam.Rank, pc: rowTeam.Rank}
	lr, lc := d.localRows(), d.localCols()

	var eng Engine
	if cfg.Real {
		eng = NewRealEngine()
	} else {
		eng = NewPhantomEngine()
	}
	eng.Alloc(d, cfg.Seed, lr, lc)
	im.MemWork(8 * lr * lc) // touching the local matrix once (generation)

	sw := newSwapper(w, im, d)
	ipiv := make([]int, cfg.N)
	nbl := d.numBlocks()
	maxLC := ((nbl+cfg.Q-1)/cfg.Q + 1) * cfg.NB

	panelBuf := make([]float64, (lr+1)*cfg.NB)
	uBuf := make([]float64, cfg.NB*maxLC)
	pivRow := make([]float64, cfg.NB)
	ipivBuf := make([]float64, cfg.NB)
	rowBufA := make([]float64, maxLC)
	rowBufB := make([]float64, maxLC)
	l11Buf := make([]float64, cfg.NB*cfg.NB)
	l21Buf := make([]float64, lr*cfg.NB)

	pol.Barrier(v)
	st.start = im.Now()

	for kb := 0; kb < nbl; kb++ {
		cb := d.blockSize(kb)
		krow := kb * cfg.NB
		ownPanel := d.pc == d.ownerCol(kb)
		panelLC0 := 0
		if ownPanel {
			panelLC0 = d.localColOf(krow)
		}
		// ---- Panel factorization by the owning column team ----
		if ownPanel {
			singular := false
			for j := 0; j < cb; j++ {
				gr1 := krow + j
				lrj0 := d.firstLocalRowAtOrAfter(gr1)
				// Local pivot candidate.
				cand := []float64{-1, math.MaxFloat64}
				if val, plr, ok := eng.LocalAbsMax(panelLC0+j, lrj0, lr); ok {
					cand[0], cand[1] = val, float64(d.globalRowOfLocal(plr))
				}
				im.MemWork(8 * (lr - lrj0)) // the scan
				core.PolicyAllreduce(pol, colTeam, cand, maxLoc)
				if cand[0] == 0 {
					singular = true
				}
				pivGr := int(cand[1])
				ipiv[gr1] = pivGr
				if singular {
					// Propagate a sentinel so every image (not just the
					// panel column team) aborts consistently after the
					// pivot broadcast.
					ipiv[gr1] = -1
				}
				if !singular {
					// Swap rows gr1 and pivGr across the panel width.
					sw.swapRows(eng, d, gr1, pivGr, panelLC0, panelLC0+cb, rowBufA, rowBufB)
					// Owner of the (post-swap) pivot row broadcasts it:
					// element 0 is the pivot, the rest drive the rank-1
					// update.
					seg := pivRow[:cb-j]
					if d.pr == d.ownerRow(gr1/cfg.NB) {
						eng.PackRow(d.localRowOf(gr1), panelLC0+j, panelLC0+cb, seg)
					}
					core.PolicyBroadcast(pol, colTeam, d.ownerRow(gr1/cfg.NB), seg)
					pivot := seg[0]
					below := d.firstLocalRowAtOrAfter(gr1 + 1)
					eng.ScaleColumn(panelLC0+j, below, lr, pivot)
					eng.Rank1Update(panelLC0+j, panelLC0+cb, below, lr, seg[1:])
					im.Compute(2 * float64(lr-below) * float64(cb-j))
				}
			}
			if singular {
				st.err = ErrSingular
			}
		}
		// ---- Panel + pivot broadcast along row teams ----
		plr0 := d.firstLocalRowAtOrAfter(krow)
		panelRows := lr - plr0
		panel := panelBuf[:panelRows*cb]
		if ownPanel {
			eng.PackPanel(plr0, lr, panelLC0, cb, panel)
			im.MemWork(8 * len(panel))
			for j := 0; j < cb; j++ {
				ipivBuf[j] = float64(ipiv[krow+j])
			}
		}
		core.PolicyBroadcast(pol, rowTeam, d.ownerCol(kb), panel)
		core.PolicyBroadcast(pol, rowTeam, d.ownerCol(kb), ipivBuf[:cb])
		for j := 0; j < cb; j++ {
			ipiv[krow+j] = int(ipivBuf[j])
		}
		if st.err != nil || anySingular(ipiv[krow:krow+cb], krow) {
			// A singular pivot is seen consistently by every image
			// (the sentinel row MaxFloat64 does not round-trip).
			st.err = ErrSingular
			break
		}
		// ---- Row interchanges on the rest of the matrix ----
		exclude0, exclude1 := -1, -1
		if ownPanel {
			exclude0, exclude1 = panelLC0, panelLC0+cb
		}
		for j := 0; j < cb; j++ {
			gr1 := krow + j
			if ipiv[gr1] != gr1 {
				sw.swapRowsExcluding(eng, d, gr1, ipiv[gr1], exclude0, exclude1, rowBufA, rowBufB)
			}
		}
		// ---- U stripe: TRSM on the pivot block row, broadcast down ----
		trail0 := d.firstLocalColAtOrAfter((kb + 1) * cfg.NB)
		trailCols := lc - trail0
		u := uBuf[:cb*trailCols]
		if d.pr == d.ownerRow(kb) {
			l11 := extractL11(l11Buf, panel, panelRows, cb, d, krow)
			if trailCols > 0 {
				eng.Trsm(l11, cb, d.localRowOf(krow), trail0, lc)
				im.Compute(linalg.TrsmFlops(cb, trailCols))
				eng.PackU(d.localRowOf(krow), cb, trail0, lc, u)
				im.MemWork(8 * len(u))
			}
		}
		core.PolicyBroadcast(pol, colTeam, d.ownerRow(kb), u)
		// ---- Trailing update ----
		gr0 := d.firstLocalRowAtOrAfter((kb + 1) * cfg.NB)
		m := lr - gr0
		if m > 0 && trailCols > 0 {
			l21 := packL21(l21Buf, panel, panelRows, cb, gr0-plr0)
			eng.Gemm(l21, u, cb, gr0, lr, trail0, lc)
			im.Compute(linalg.GemmFlops(m, trailCols, cb))
		}
	}

	pol.Barrier(v)
	st.end = im.Now()

	if cfg.Verify && st.err == nil {
		st.residual, st.maxDiff, st.err = verify(w, im, d, eng, ipiv, cfg)
	}
	return st
}

// anySingular reports whether any pivot in the block kept the "no
// candidate" sentinel.
func anySingular(piv []int, krow int) bool {
	for _, p := range piv {
		if p < krow || p >= 1<<50 {
			return true
		}
	}
	return false
}

// extractL11 pulls the cb×cb unit-lower block of the panel corresponding to
// global block row krow/nb out of the packed panel buffer (panelRows × cb,
// column-major) into buf, which the image reuses across panel steps. Only
// called on images whose grid row owns that block.
func extractL11(buf, panel []float64, panelRows, cb int, d dist, krow int) []float64 {
	lrTop := d.localRowOf(krow)
	plr0 := d.firstLocalRowAtOrAfter(krow)
	off := lrTop - plr0
	out := buf[:cb*cb]
	for j := 0; j < cb; j++ {
		copy(out[j*cb:j*cb+cb], panel[j*panelRows+off:j*panelRows+off+cb])
	}
	return out
}

// packL21 extracts the trailing rows (from localOff on) of the packed panel
// as a dense (panelRows−localOff) × cb column-major block in buf, which the
// image reuses across panel steps.
func packL21(buf, panel []float64, panelRows, cb, localOff int) []float64 {
	m := panelRows - localOff
	if m <= 0 {
		return nil
	}
	out := buf[:m*cb]
	for j := 0; j < cb; j++ {
		copy(out[j*m:j*m+m], panel[j*panelRows+localOff:j*panelRows+localOff+m])
	}
	return out
}

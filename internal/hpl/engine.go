package hpl

import (
	"math"

	"cafteams/internal/linalg"
)

// Engine abstracts the arithmetic of the solver so performance runs can skip
// it. All engines see the same call sequence; the driver charges simulated
// compute time uniformly, so Real and Phantom runs take identical simulated
// time on identical configurations.
type Engine interface {
	// Alloc prepares local storage for lr×lc local elements and fills it
	// with the deterministic input matrix.
	Alloc(d dist, seed int64, lr, lc int)
	// LocalAbsMax scans local column lc over local rows [lr0, lrEnd) and
	// returns the maximum |value| and its local row, or ok=false if the
	// range is empty.
	LocalAbsMax(lc, lr0, lrEnd int) (val float64, lr int, ok bool)
	// ScaleColumn divides local column lc rows [lr0, lrEnd) by pivot.
	ScaleColumn(lc, lr0, lrEnd int, pivot float64)
	// Rank1Update applies A[lr0:lrEnd, lc+1:lcEnd) -= l * pivRow where l
	// is column lc and pivRow holds the pivot row values for columns
	// lc+1..lcEnd.
	Rank1Update(lc, lcEnd, lr0, lrEnd int, pivRow []float64)
	// PackRow copies local row lr, columns [c0, c1), into out.
	PackRow(lr, c0, c1 int, out []float64)
	// UnpackRow stores out into local row lr, columns [c0, c1).
	UnpackRow(lr, c0, c1 int, in []float64)
	// PackPanel copies the lr0.. suffix of local columns [lc0, lc0+w)
	// into out, column-major.
	PackPanel(lr0, lrEnd, lc0, w int, out []float64)
	// Trsm solves L11 * X = U in place on local rows [lr0, lr0+cb) and
	// columns [lc0, lcEnd), with L11 (cb×cb unit lower) given column-major
	// in l11.
	Trsm(l11 []float64, cb, lr0, lc0, lcEnd int)
	// PackU copies local rows [lr0, lr0+cb), columns [lc0, lcEnd) into
	// out, column-major.
	PackU(lr0, cb, lc0, lcEnd int, out []float64)
	// Gemm applies A[lr0:lrEnd, lc0:lcEnd) -= L21 * U where L21 is
	// (lrEnd−lr0)×cb column-major and U is cb×(lcEnd−lc0) column-major.
	Gemm(l21 []float64, u []float64, cb, lr0, lrEnd, lc0, lcEnd int)
	// Local exposes the local matrix (nil for phantom engines).
	Local() *linalg.Matrix
}

// RealEngine stores and computes the actual matrix.
type RealEngine struct {
	d dist
	a *linalg.Matrix
}

// NewRealEngine returns an engine that really computes.
func NewRealEngine() *RealEngine { return &RealEngine{} }

// Alloc implements Engine.
func (e *RealEngine) Alloc(d dist, seed int64, lr, lc int) {
	e.d = d
	e.a = linalg.NewMatrix(lr, lc)
	for j := 0; j < lc; j++ {
		gc := d.globalColOfLocal(j)
		for i := 0; i < lr; i++ {
			e.a.Set(i, j, linalg.ElementAt(seed, d.globalRowOfLocal(i), gc))
		}
	}
}

// LocalAbsMax implements Engine.
func (e *RealEngine) LocalAbsMax(lc, lr0, lrEnd int) (float64, int, bool) {
	if lr0 >= lrEnd {
		return 0, 0, false
	}
	best, bi := math.Abs(e.a.At(lr0, lc)), lr0
	for i := lr0 + 1; i < lrEnd; i++ {
		if v := math.Abs(e.a.At(i, lc)); v > best {
			best, bi = v, i
		}
	}
	return best, bi, true
}

// ScaleColumn implements Engine.
func (e *RealEngine) ScaleColumn(lc, lr0, lrEnd int, pivot float64) {
	for i := lr0; i < lrEnd; i++ {
		e.a.Set(i, lc, e.a.At(i, lc)/pivot)
	}
}

// Rank1Update implements Engine.
func (e *RealEngine) Rank1Update(lc, lcEnd, lr0, lrEnd int, pivRow []float64) {
	for j := lc + 1; j < lcEnd; j++ {
		f := pivRow[j-lc-1]
		if f == 0 {
			continue
		}
		for i := lr0; i < lrEnd; i++ {
			e.a.Set(i, j, e.a.At(i, j)-e.a.At(i, lc)*f)
		}
	}
}

// PackRow implements Engine.
func (e *RealEngine) PackRow(lr, c0, c1 int, out []float64) {
	for j := c0; j < c1; j++ {
		out[j-c0] = e.a.At(lr, j)
	}
}

// UnpackRow implements Engine.
func (e *RealEngine) UnpackRow(lr, c0, c1 int, in []float64) {
	for j := c0; j < c1; j++ {
		e.a.Set(lr, j, in[j-c0])
	}
}

// PackPanel implements Engine.
func (e *RealEngine) PackPanel(lr0, lrEnd, lc0, w int, out []float64) {
	idx := 0
	for j := lc0; j < lc0+w; j++ {
		for i := lr0; i < lrEnd; i++ {
			out[idx] = e.a.At(i, j)
			idx++
		}
	}
}

// Trsm implements Engine.
func (e *RealEngine) Trsm(l11 []float64, cb, lr0, lc0, lcEnd int) {
	l := &linalg.Matrix{Rows: cb, Cols: cb, LD: cb, Data: l11}
	u := e.a.Sub(lr0, lc0, cb, lcEnd-lc0)
	linalg.TrsmLowerUnitLeft(l, u)
}

// PackU implements Engine.
func (e *RealEngine) PackU(lr0, cb, lc0, lcEnd int, out []float64) {
	idx := 0
	for j := lc0; j < lcEnd; j++ {
		for i := 0; i < cb; i++ {
			out[idx] = e.a.At(lr0+i, j)
			idx++
		}
	}
}

// Gemm implements Engine.
func (e *RealEngine) Gemm(l21, u []float64, cb, lr0, lrEnd, lc0, lcEnd int) {
	m := lrEnd - lr0
	nn := lcEnd - lc0
	if m <= 0 || nn <= 0 || cb <= 0 {
		return
	}
	la := &linalg.Matrix{Rows: m, Cols: cb, LD: m, Data: l21}
	ua := &linalg.Matrix{Rows: cb, Cols: nn, LD: cb, Data: u}
	c := e.a.Sub(lr0, lc0, m, nn)
	linalg.Gemm(-1, la, ua, c)
}

// Local implements Engine.
func (e *RealEngine) Local() *linalg.Matrix { return e.a }

// PhantomEngine issues no arithmetic and stores no matrix; pivot values are
// a deterministic pseudo-random function of the global position, so every
// image of a column team agrees on the pivot without data.
type PhantomEngine struct {
	d    dist
	seed int64
}

// NewPhantomEngine returns a storage-free engine for performance runs.
func NewPhantomEngine() *PhantomEngine { return &PhantomEngine{} }

// Alloc implements Engine.
func (e *PhantomEngine) Alloc(d dist, seed int64, lr, lc int) { e.d, e.seed = d, seed }

// LocalAbsMax implements Engine: a deterministic fake that still depends on
// (image, column) so pivots bounce between owners like they would with real
// data.
func (e *PhantomEngine) LocalAbsMax(lc, lr0, lrEnd int) (float64, int, bool) {
	if lr0 >= lrEnd {
		return 0, 0, false
	}
	span := lrEnd - lr0
	h := uint64(e.seed)*0x9e3779b97f4a7c15 + uint64(lc)*0x517cc1b727220a95 + uint64(e.d.pr)*2654435761
	h ^= h >> 29
	lr := lr0 + int(h%uint64(span))
	val := 0.5 + float64(h%1024)/1024
	return val, lr, true
}

// ScaleColumn implements Engine.
func (e *PhantomEngine) ScaleColumn(lc, lr0, lrEnd int, pivot float64) {}

// Rank1Update implements Engine.
func (e *PhantomEngine) Rank1Update(lc, lcEnd, lr0, lrEnd int, pivRow []float64) {}

// PackRow implements Engine.
func (e *PhantomEngine) PackRow(lr, c0, c1 int, out []float64) {}

// UnpackRow implements Engine.
func (e *PhantomEngine) UnpackRow(lr, c0, c1 int, in []float64) {}

// PackPanel implements Engine.
func (e *PhantomEngine) PackPanel(lr0, lrEnd, lc0, w int, out []float64) {}

// Trsm implements Engine.
func (e *PhantomEngine) Trsm(l11 []float64, cb, lr0, lc0, lcEnd int) {}

// PackU implements Engine.
func (e *PhantomEngine) PackU(lr0, cb, lc0, lcEnd int, out []float64) {}

// Gemm implements Engine.
func (e *PhantomEngine) Gemm(l21, u []float64, cb, lr0, lrEnd, lc0, lcEnd int) {}

// Local implements Engine.
func (e *PhantomEngine) Local() *linalg.Matrix { return nil }

// Package linalg provides the dense linear algebra kernels the HPL port
// needs, implemented from scratch in pure Go: blocked matrix-matrix multiply
// (DGEMM), triangular solves (DTRSM), unblocked and blocked LU factorization
// with partial pivoting (DGETF2/DGETRF), row interchanges (DLASWP), norms,
// and the HPL residual check.
//
// Matrices are dense, column-major (Fortran order, matching HPL), stored in
// a flat []float64 with a leading dimension: element (i,j) of an m×n matrix
// A with leading dimension lda lives at A[i+j*lda].
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a column-major dense matrix view.
type Matrix struct {
	Rows, Cols int
	LD         int // leading dimension (>= Rows)
	Data       []float64
}

// NewMatrix allocates an m×n zero matrix with LD = m.
func NewMatrix(m, n int) *Matrix {
	if m < 0 || n < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", m, n))
	}
	return &Matrix{Rows: m, Cols: n, LD: max(m, 1), Data: make([]float64, max(m, 1)*n)}
}

// At returns element (i, j).
func (a *Matrix) At(i, j int) float64 { return a.Data[i+j*a.LD] }

// Set assigns element (i, j).
func (a *Matrix) Set(i, j int, v float64) { a.Data[i+j*a.LD] = v }

// Sub returns a view of the block starting at (i, j) with r rows and c
// columns, sharing storage with a.
func (a *Matrix) Sub(i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || i+r > a.Rows || j+c > a.Cols {
		panic(fmt.Sprintf("linalg: sub (%d,%d,%d,%d) outside %dx%d", i, j, r, c, a.Rows, a.Cols))
	}
	return &Matrix{Rows: r, Cols: c, LD: a.LD, Data: a.Data[i+j*a.LD:]}
}

// Clone returns a deep copy.
func (a *Matrix) Clone() *Matrix {
	b := NewMatrix(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		copy(b.Data[j*b.LD:j*b.LD+a.Rows], a.Data[j*a.LD:j*a.LD+a.Rows])
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Gemm computes C = C + alpha * A * B where A is m×k, B is k×n, C is m×n —
// the kernel HPL spends its time in. The inner loops are arranged j-l-i so
// the innermost walks columns contiguously (column-major axpy form).
func Gemm(alpha float64, a, b, c *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if b.Rows != k || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("linalg: gemm shape mismatch %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	for j := 0; j < n; j++ {
		cj := c.Data[j*c.LD : j*c.LD+m]
		for l := 0; l < k; l++ {
			blj := alpha * b.At(l, j)
			if blj == 0 {
				continue
			}
			al := a.Data[l*a.LD : l*a.LD+m]
			for i := range cj {
				cj[i] += blj * al[i]
			}
		}
	}
}

// GemmFlops returns the floating-point operation count of Gemm on the given
// shapes (2mnk).
func GemmFlops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }

// TrsmLowerUnitLeft solves L * X = B in place (B <- L⁻¹ B) where L is the
// unit lower triangle of a (m×m) and B is m×n — the U-panel update in HPL's
// right-looking step.
func TrsmLowerUnitLeft(a, b *Matrix) {
	m, n := b.Rows, b.Cols
	if a.Rows < m || a.Cols < m {
		panic("linalg: trsm triangle smaller than right-hand side")
	}
	for j := 0; j < n; j++ {
		bj := b.Data[j*b.LD : j*b.LD+m]
		for l := 0; l < m; l++ {
			x := bj[l]
			if x == 0 {
				continue
			}
			al := a.Data[l*a.LD : l*a.LD+m]
			for i := l + 1; i < m; i++ {
				bj[i] -= x * al[i]
			}
		}
	}
}

// TrsmFlops returns the flop count of a unit-lower triangular solve with an
// m×m triangle and n right-hand sides (~m²n).
func TrsmFlops(m, n int) float64 { return float64(m) * float64(m) * float64(n) }

// ErrSingular reports a (numerically) singular pivot during factorization.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Getf2 factorizes the m×n panel a in place into P*L*U using unblocked
// Gaussian elimination with partial pivoting. ipiv[k] receives the row index
// (within the panel) swapped with row k. Mirrors LAPACK dgetf2.
func Getf2(a *Matrix, ipiv []int) error {
	m, n := a.Rows, a.Cols
	mn := m
	if n < mn {
		mn = n
	}
	if len(ipiv) < mn {
		panic("linalg: ipiv too short")
	}
	for k := 0; k < mn; k++ {
		// Pivot search in column k.
		p := k
		best := math.Abs(a.At(k, k))
		for i := k + 1; i < m; i++ {
			if v := math.Abs(a.At(i, k)); v > best {
				best, p = v, i
			}
		}
		ipiv[k] = p
		if best == 0 {
			return ErrSingular
		}
		if p != k {
			SwapRows(a, k, p)
		}
		// Scale the column and update the trailing submatrix.
		pivot := a.At(k, k)
		for i := k + 1; i < m; i++ {
			a.Set(i, k, a.At(i, k)/pivot)
		}
		for j := k + 1; j < n; j++ {
			akj := a.At(k, j)
			if akj == 0 {
				continue
			}
			col := a.Data[j*a.LD:]
			lcol := a.Data[k*a.LD:]
			for i := k + 1; i < m; i++ {
				col[i] -= lcol[i] * akj
			}
		}
	}
	return nil
}

// Getf2Flops approximates the flop count of an m×n unblocked panel
// factorization.
func Getf2Flops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return fm*fn*fn - fn*fn*fn/3
}

// SwapRows exchanges rows i and j across all columns of a.
func SwapRows(a *Matrix, i, j int) {
	for c := 0; c < a.Cols; c++ {
		off := c * a.LD
		a.Data[off+i], a.Data[off+j] = a.Data[off+j], a.Data[off+i]
	}
}

// Laswp applies the row interchanges recorded in ipiv (as produced by Getf2
// for rows k0..k0+len-1) to the columns of a — LAPACK dlaswp.
func Laswp(a *Matrix, k0 int, ipiv []int) {
	for k, p := range ipiv {
		if p != k0+k {
			SwapRows(a, k0+k, p)
		}
	}
}

// Getrf factorizes the n×n matrix a in place into P*L*U using blocked
// right-looking elimination with block size nb. ipiv records global row
// swaps. This is the serial reference the distributed HPL result is checked
// against.
func Getrf(a *Matrix, ipiv []int, nb int) error {
	n := a.Rows
	if a.Cols != n {
		return fmt.Errorf("linalg: getrf needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if nb <= 0 {
		nb = 32
	}
	for k := 0; k < n; k += nb {
		b := nb
		if k+b > n {
			b = n - k
		}
		// Factor the panel A[k:n, k:k+b].
		panel := a.Sub(k, k, n-k, b)
		piv := make([]int, b)
		if err := Getf2(panel, piv); err != nil {
			return err
		}
		for i := 0; i < b; i++ {
			ipiv[k+i] = k + piv[i]
		}
		// Apply the swaps to the rest of the matrix.
		left := a.Sub(k, 0, n-k, k)
		Laswp(left, 0, piv)
		if k+b < n {
			right := a.Sub(k, k+b, n-k, n-k-b)
			Laswp(right, 0, piv)
			// U update: solve L11 * U12 = A12.
			u := a.Sub(k, k+b, b, n-k-b)
			TrsmLowerUnitLeft(panel, u)
			// Trailing update: A22 -= L21 * U12.
			l21 := a.Sub(k+b, k, n-k-b, b)
			a22 := a.Sub(k+b, k+b, n-k-b, n-k-b)
			Gemm(-1, l21, u, a22)
		}
	}
	return nil
}

// LuSolve solves A x = b given the factorization computed by Getrf (lu holds
// L and U, ipiv the swaps). b is overwritten with x.
func LuSolve(lu *Matrix, ipiv []int, b []float64) {
	n := lu.Rows
	// Apply permutation.
	for k := 0; k < n; k++ {
		if p := ipiv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	// Forward solve L y = Pb (unit lower).
	for j := 0; j < n; j++ {
		x := b[j]
		if x == 0 {
			continue
		}
		col := lu.Data[j*lu.LD:]
		for i := j + 1; i < n; i++ {
			b[i] -= x * col[i]
		}
	}
	// Back solve U x = y.
	for j := n - 1; j >= 0; j-- {
		b[j] /= lu.At(j, j)
		x := b[j]
		col := lu.Data[j*lu.LD:]
		for i := 0; i < j; i++ {
			b[i] -= x * col[i]
		}
	}
}

// MatVec computes y = A x.
func MatVec(a *Matrix, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		col := a.Data[j*a.LD : j*a.LD+a.Rows]
		for i := range col {
			y[i] += xj * col[i]
		}
	}
	return y
}

// NormInfMatrix returns the infinity norm (max row sum) of a.
func NormInfMatrix(a *Matrix) float64 {
	sums := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		col := a.Data[j*a.LD : j*a.LD+a.Rows]
		for i, v := range col {
			sums[i] += math.Abs(v)
		}
	}
	best := 0.0
	for _, s := range sums {
		if s > best {
			best = s
		}
	}
	return best
}

// NormInfVec returns the infinity norm of a vector.
func NormInfVec(x []float64) float64 {
	best := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// Residual computes the scaled HPL residual
// ||Ax−b||_inf / (eps · (||A||_inf · ||x||_inf + ||b||_inf) · n),
// which HPL requires to be O(1) for a passing run.
func Residual(a *Matrix, x, b []float64) float64 {
	n := a.Rows
	ax := MatVec(a, x)
	maxDiff := 0.0
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > maxDiff {
			maxDiff = d
		}
	}
	eps := math.Nextafter(1, 2) - 1
	denom := eps * (NormInfMatrix(a)*NormInfVec(x) + NormInfVec(b)) * float64(n)
	if denom == 0 {
		return 0
	}
	return maxDiff / denom
}

// FillRandom fills a with the HPL-style pseudo-random matrix: a
// deterministic linear congruential stream seeded per element position, so
// distributed and serial generators agree without communication.
func FillRandom(a *Matrix, seed int64, rowOff, colOff int) {
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			a.Set(i, j, ElementAt(seed, rowOff+i, colOff+j))
		}
	}
}

// ElementAt returns the deterministic pseudo-random value of global element
// (i, j) for the given seed — the property that lets every image of the
// distributed HPL generate its local blocks independently.
func ElementAt(seed int64, i, j int) float64 {
	x := uint64(seed)*2654435761 + uint64(i)*40503 + uint64(j)*69621 + 12345
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	// Map to [-0.5, 0.5) like HPL's generator.
	return float64(x>>11)/float64(1<<53) - 0.5
}

// LuFlops returns the canonical HPL operation count 2n³/3 + 3n²/2.
func LuFlops(n int) float64 {
	fn := float64(n)
	return 2*fn*fn*fn/3 + 3*fn*fn/2
}

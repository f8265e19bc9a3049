// CG: a distributed conjugate-gradient solver for the 2-D Laplacian — the
// other classic PGAS kernel. The grid is row-partitioned across images;
// every iteration does two halo exchanges (one-sided puts), two global dot
// products (co_sum over the hierarchy-aware runtime) and one norm check,
// making it a collective-latency-bound workload where the two-level
// methodology pays off directly.
//
// The r·r dot product is split-phase (CoSumAsync): the reduction is
// initiated as soon as the local partial sum is ready and completed after
// the x-vector update, which does not depend on it — so the reduction's
// rounds hide behind that compute (the classic overlapped-dot-product CG
// transformation). Both modes execute identical arithmetic in identical
// order; only the completion point of the reduction moves. -overlap=false
// runs only the blocking baseline; the default prints both and the speedup.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"cafteams/caf"
)

func main() {
	spec := flag.String("spec", "16(2)", "placement, images(nodes)")
	nx := flag.Int("nx", 64, "grid columns")
	rowsPer := flag.Int("rows", 16, "grid rows per image")
	maxIter := flag.Int("iters", 200, "max CG iterations")
	overlap := flag.Bool("overlap", true, "also run with the split-phase dot product and compare")
	flag.Parse()
	if *nx < 1 || *rowsPer < 1 || *maxIter < 1 {
		log.Fatalf("cg: -nx %d -rows %d -iters %d: each must be at least 1", *nx, *rowsPer, *maxIter)
	}

	blocking := run(*spec, *nx, *rowsPer, *maxIter, false)
	fmt.Printf("cg on %s (blocking):   simulated %.2f ms, %d intra / %d inter messages\n",
		*spec, float64(blocking.Elapsed)/1e6, blocking.Stats.IntraMsgs, blocking.Stats.InterMsgs)
	if *overlap {
		overlapped := run(*spec, *nx, *rowsPer, *maxIter, true)
		fmt.Printf("cg on %s (overlapped): simulated %.2f ms, %d intra / %d inter messages\n",
			*spec, float64(overlapped.Elapsed)/1e6, overlapped.Stats.IntraMsgs, overlapped.Stats.InterMsgs)
		fmt.Printf("overlap speedup: %.2fx\n", float64(blocking.Elapsed)/float64(overlapped.Elapsed))
	}
}

func run(spec string, nx, rowsPer, maxIter int, overlap bool) caf.Report {
	rep, err := caf.Run(caf.Config{Spec: spec}, func(im *caf.Image) {
		me, n := im.ThisImage(), im.NumImages()
		w, h := nx, rowsPer
		stride := w

		// Vectors with ghost rows (top offset 0, interior 1..h, bottom h+1).
		p := im.NewCoarray("p", (h+2)*stride) // search direction (needs halo)
		x := make([]float64, h*stride)
		r := make([]float64, h*stride)
		ap := make([]float64, h*stride)

		// b = 1 everywhere; x0 = 0; r0 = b; p0 = r0.
		pL := p.Local(im)
		for i := range r {
			r[i] = 1
			pL[(1+i/stride)*stride+i%stride] = 1
		}
		im.SyncAll()

		dot := func(a, b []float64) float64 {
			s := 0.0
			for i := range a {
				s += a[i] * b[i]
			}
			im.Compute(float64(2 * len(a)))
			v := []float64{s}
			im.CoSum(v)
			return v[0]
		}

		rr := dot(r, r)
		iter := 0
		for ; iter < maxIter && math.Sqrt(rr) > 1e-8; iter++ {
			// Halo exchange of p.
			if me > 1 {
				p.Put(im, me-1, (h+1)*stride, pL[1*stride:2*stride])
			}
			if me < n {
				p.Put(im, me+1, 0, pL[h*stride:(h+1)*stride])
			}
			im.SyncMemory()
			im.SyncAll()

			// ap = A p (5-point Laplacian).
			for rr_ := 1; rr_ <= h; rr_++ {
				for c := 0; c < w; c++ {
					v := 4 * pL[rr_*stride+c]
					v -= pL[(rr_-1)*stride+c]
					v -= pL[(rr_+1)*stride+c]
					if c > 0 {
						v -= pL[rr_*stride+c-1]
					}
					if c < w-1 {
						v -= pL[rr_*stride+c+1]
					}
					ap[(rr_-1)*stride+c] = v
				}
			}
			im.Compute(float64(6 * h * w))

			pap := 0.0
			for i := range ap {
				pap += pL[(1+i/stride)*stride+i%stride] * ap[i]
			}
			im.Compute(float64(2 * len(ap)))
			v := []float64{pap}
			im.CoSum(v)
			alpha := rr / v[0]

			// r update and the local r·r partial, so the global reduction
			// can start before the x update.
			rrLocal := 0.0
			for i := range r {
				r[i] -= alpha * ap[i]
				rrLocal += r[i] * r[i]
			}
			im.Compute(float64(4 * len(r)))
			v2 := []float64{rrLocal}
			var pending *caf.Handle
			if overlap {
				pending = im.CoSumAsync(v2)
			}
			// x update — independent of the reduction in flight.
			for i := range x {
				x[i] += alpha * pL[(1+i/stride)*stride+i%stride]
			}
			im.Compute(float64(2 * len(x)))
			if overlap {
				pending.Wait()
			} else {
				im.CoSum(v2)
			}
			rrNew := v2[0]
			beta := rrNew / rr
			rr = rrNew
			for i := range r {
				pL[(1+i/stride)*stride+i%stride] = r[i] + beta*pL[(1+i/stride)*stride+i%stride]
			}
			im.Compute(float64(2 * len(r)))
			im.SyncAll()
		}
		if me == 1 {
			fmt.Printf("CG stopped with ||r|| = %.3e after %d iterations\n", math.Sqrt(rr), iter)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

// Heat2d: a 2-D Jacobi heat-diffusion stencil with 1-D row decomposition —
// the classic PGAS workload the paper's introduction motivates. Each image
// owns a band of rows; halo rows are exchanged with one-sided puts into the
// neighbors' ghost slabs, iterations are separated by team barriers
// (dispatched to TDLB on the hierarchy-aware runtime), and the global
// residual is a co_max every few sweeps.
//
// The residual reduction is split-phase (CoMaxAsync): it is initiated right
// after the sweep that produced it and completed only after the *next*
// sweep's halo exchange and stencil update, so the reduction's rounds hide
// behind the barrier, the halo traffic and the compute (the convergence
// decision lands one sweep late, standard for overlapped residual checks).
// The default checks every sweep — the collective-latency-bound regime the
// split-phase API targets; -check N thins the cadence. -overlap=false runs
// only the blocking baseline; the default prints both and the speedup.
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
	nx := flag.Int("nx", 128, "grid columns")
	rowsPer := flag.Int("rows", 32, "grid rows per image")
	sweeps := flag.Int("sweeps", 200, "Jacobi sweeps")
	check := flag.Int("check", 1, "sweeps between residual checks")
	overlap := flag.Bool("overlap", true, "also run with the split-phase residual check and compare")
	flag.Parse()
	if *nx < 3 || *rowsPer < 1 || *sweeps < 1 || *check < 1 {
		log.Fatalf("heat2d: -nx %d -rows %d -sweeps %d -check %d: -nx must be at least 3, the others at least 1", *nx, *rowsPer, *sweeps, *check)
	}

	blocking := run(*spec, *nx, *rowsPer, *sweeps, *check, false)
	fmt.Printf("heat2d on %s (blocking):   simulated %.2f ms, %d intra / %d inter messages\n",
		*spec, float64(blocking.Elapsed)/1e6, blocking.Stats.IntraMsgs, blocking.Stats.InterMsgs)
	if *overlap {
		overlapped := run(*spec, *nx, *rowsPer, *sweeps, *check, true)
		fmt.Printf("heat2d on %s (overlapped): simulated %.2f ms, %d intra / %d inter messages\n",
			*spec, float64(overlapped.Elapsed)/1e6, overlapped.Stats.IntraMsgs, overlapped.Stats.InterMsgs)
		fmt.Printf("overlap speedup: %.2fx\n", float64(blocking.Elapsed)/float64(overlapped.Elapsed))
	}
}

func run(spec string, nx, rowsPer, sweeps, check int, overlap bool) caf.Report {
	rep, err := caf.Run(caf.Config{Spec: spec}, func(im *caf.Image) {
		me, n := im.ThisImage(), im.NumImages()
		w := nx
		h := rowsPer

		// Two coarrays: the band (h rows) plus two ghost rows each for
		// the current and next iterate. Layout: row-major, ghost top at
		// offset 0, interior rows 1..h, ghost bottom at h+1.
		cur := im.NewCoarray("cur", (h+2)*w)
		next := im.NewCoarray("next", (h+2)*w)
		curL, nextL := cur.Local(im), next.Local(im)

		// Hot left wall, cold elsewhere.
		for r := 0; r < h+2; r++ {
			curL[r*w] = 100
			nextL[r*w] = 100
		}
		im.SyncAll()

		up, down := me-1, me+1
		maxDiff := []float64{0}
		var pending *caf.Handle // in-flight residual reduction
		for s := 0; s < sweeps; s++ {
			// Halo exchange: push my boundary rows into the neighbors'
			// ghost rows (one-sided puts), then synchronize.
			if up >= 1 {
				cur.Put(im, up, (h+1)*w, curL[1*w:2*w])
			}
			if down <= n {
				cur.Put(im, down, 0, curL[h*w:(h+1)*w])
			}
			im.SyncMemory()
			im.SyncAll()

			// Jacobi sweep on the interior.
			diff := 0.0
			for r := 1; r <= h; r++ {
				for c := 1; c < w-1; c++ {
					v := 0.25 * (curL[(r-1)*w+c] + curL[(r+1)*w+c] +
						curL[r*w+c-1] + curL[r*w+c+1])
					if d := math.Abs(v - curL[r*w+c]); d > diff {
						diff = d
					}
					nextL[r*w+c] = v
				}
			}
			im.Compute(float64(4 * h * (w - 2))) // 4 flops per point
			curL, nextL = nextL, curL
			cur, next = next, cur

			// Complete the residual reduction started last check sweep —
			// its rounds have been progressing behind the barrier, the
			// halo puts and the compute above.
			if pending != nil {
				pending.Wait()
				pending = nil
				if maxDiff[0] < 1e-4 {
					break
				}
			}
			// Global convergence check (co_max) every `check` sweeps.
			if s%check == check-1 {
				maxDiff[0] = diff
				if overlap {
					pending = im.CoMaxAsync(maxDiff)
				} else {
					im.CoMax(maxDiff)
					if maxDiff[0] < 1e-4 {
						break
					}
				}
			}
			im.SyncAll()
		}
		if pending != nil {
			pending.Wait()
		}
		if me == 1 {
			fmt.Printf("final residual %.3e after convergence check\n", maxDiff[0])
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

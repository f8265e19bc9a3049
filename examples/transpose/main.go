// Command transpose is the distributed matrix transpose workload: the
// global M×M matrix is distributed by row bands (one band per image), the
// transpose is one personalized all-to-all exchange of b×b tiles followed
// by local tile transposes, and each image finds its band offset with an
// exclusive prefix sum (CoScan) over the per-image row counts — the
// MPI_Exscan idiom. It compares the flat alltoall schedules (pairwise
// exchange, Bruck) against the hierarchy-aware 2level algorithm that stages
// tiles through node leaders, and prints per-transpose latencies with the
// speedup over the flat pairwise baseline.
//
// Usage:
//
//	transpose [-spec images(nodes)] [-rows b] [-iters n]
package main

import (
	"flag"
	"fmt"
	"os"

	"cafteams/caf"
)

func main() {
	spec := flag.String("spec", "64(8)", "placement, \"images(nodes)\"")
	rows := flag.Int("rows", 8, "matrix rows per image (tiles are rows x rows)")
	iters := flag.Int("iters", 10, "transposes per measurement")
	flag.Parse()
	if *rows < 1 || *iters < 1 {
		fmt.Fprintf(os.Stderr, "transpose: -rows %d -iters %d: each must be at least 1\n", *rows, *iters)
		os.Exit(1)
	}

	fmt.Printf("distributed transpose: %s, %d rows/image, %d iterations\n", *spec, *rows, *iters)
	fmt.Printf("  %-10s %14s %10s\n", "alltoall", "latency/op", "vs pairwise")
	var base float64
	for _, alg := range []string{"pairwise", "bruck", "2level"} {
		lat, err := Measure(*spec, *rows, *iters, alg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "transpose:", err)
			os.Exit(1)
		}
		if alg == "pairwise" {
			base = lat
		}
		fmt.Printf("  %-10s %11.2f us %9.2fx\n", alg, lat/1000, lat/base)
	}
}

// Measure runs iters verified transposes with the named alltoall algorithm
// on one placement and returns the mean simulated latency per transpose in
// nanoseconds.
func Measure(spec string, b, iters int, alg string) (float64, error) {
	cfg := caf.Config{Spec: spec}.WithAlgorithm(caf.KindAlltoall, alg)
	rep, err := caf.Run(cfg, func(im *caf.Image) {
		p := im.NumImages()
		m := p * b
		// My band's global row offset: the exclusive prefix sum of the
		// per-image row counts. An exclusive scan leaves image 1's buffer
		// unchanged, so the first image's offset is 0 by convention.
		cnt := []float64{float64(b)}
		im.CoScan(cnt, true)
		off := int(cnt[0])
		if im.ThisImage() == 1 {
			off = 0
		}
		// My band of A (A[r][c] = r*M + c), tiled by destination image.
		send := make([]float64, p*b*b)
		for j := 0; j < p; j++ {
			for r := 0; r < b; r++ {
				for c := 0; c < b; c++ {
					send[j*b*b+r*b+c] = float64((off+r)*m + j*b + c)
				}
			}
		}
		recv := make([]float64, p*b*b)
		for it := 0; it < iters; it++ {
			im.CoAlltoall(send, recv)
		}
		// Assemble my band of A-transpose from the received tiles (local
		// tile transposes) and verify it against the closed form.
		myT := make([]float64, b*m)
		for s := 0; s < p; s++ {
			for r := 0; r < b; r++ {
				for c := 0; c < b; c++ {
					myT[c*m+s*b+r] = recv[s*b*b+r*b+c]
				}
			}
		}
		for r := 0; r < b; r++ {
			for c := 0; c < m; c++ {
				if got, want := myT[r*m+c], float64(c*m+off+r); got != want {
					panic(fmt.Sprintf("transpose: image %d elem (%d,%d) = %v, want %v",
						im.ThisImage(), r, c, got, want))
				}
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(rep.Elapsed) / float64(iters), nil
}

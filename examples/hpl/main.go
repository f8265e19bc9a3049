// HPL example: solve a dense linear system with the distributed
// Coarray-style High Performance Linpack port (the paper's §V-B workload),
// with real arithmetic and the full verification pipeline — the distributed
// factors are checked against a serial factorization and the HPL residual
// test. Compares the hierarchy-aware (two-level) runtime against the flat
// one-level baseline on the same problem.
package main

import (
	"flag"
	"fmt"
	"log"

	"cafteams/internal/core"
	"cafteams/internal/hpl"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

func main() {
	spec := flag.String("spec", "16(2)", "placement, images(nodes)")
	n := flag.Int("n", 256, "problem size")
	nb := flag.Int("nb", 32, "block size")
	p := flag.Int("p", 4, "grid rows")
	q := flag.Int("q", 4, "grid cols")
	flag.Parse()

	run := func(level core.Level) hpl.Result {
		topo, err := topology.ParseSpec(*spec)
		if err != nil {
			log.Fatal(err)
		}
		w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
		if err != nil {
			log.Fatal(err)
		}
		return hpl.Run(w, hpl.Config{
			N: *n, NB: *nb, P: *p, Q: *q, Seed: 42,
			Level: level, Real: true, Verify: level == core.LevelTwo,
		})
	}

	two := run(core.LevelTwo)
	if err := two.Verdict(); err != nil {
		log.Fatal(err) // an error, or a residual HPL does not pass
	}
	fmt.Printf("HPL N=%d NB=%d on %s (%dx%d grid), two-level runtime:\n", *n, *nb, *spec, *p, *q)
	fmt.Printf("  factorization: %.3f ms simulated, %.3f GFLOP/s\n",
		float64(two.FactTime)/1e6, two.GFlops)
	fmt.Printf("  verification:  residual = %.3g (HPL passes < 16), max factor diff vs serial = %.3g\n",
		two.Residual, two.MaxLUDiff)

	flat := run(core.LevelFlat)
	if flat.Err != nil {
		log.Fatal(flat.Err)
	}
	fmt.Printf("one-level baseline: %.3f ms simulated, %.3f GFLOP/s\n",
		float64(flat.FactTime)/1e6, flat.GFlops)
	fmt.Printf("two-level speedup: %.1f%%\n",
		100*(float64(flat.FactTime)/float64(two.FactTime)-1))
}

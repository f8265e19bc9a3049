// Command hplbench regenerates the paper's Figure 1: HPL GFLOP/s across the
// placements 4(4), 16(16), 16(2), 64(8) and 256(32) for the five compared
// implementations (UHCAF 2-level / 1-level, CAF 2.0 with OpenUH and GFortran
// backends, Open MPI). Communication is simulated on the paper's cluster
// model; compute time is charged from the per-image DGEMM rate. Absolute
// numbers are model-calibrated; the ordering and the two-level-vs-one-level
// gap are the reproduced shape (experiment E5).
//
// Usage:
//
//	hplbench [-quick] [-verify] [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cafteams/internal/core"
	"cafteams/internal/hpl"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

func main() {
	quick := flag.Bool("quick", false, "smaller problems (fast smoke run)")
	verify := flag.Bool("verify", false, "additionally run a small real-arithmetic factorization with residual check")
	csv := flag.Bool("csv", false, "emit CSV")
	flag.Parse()

	if *verify {
		runVerify()
	}

	configs := hpl.Figure1Configs()
	if *quick {
		for i := range configs {
			configs[i].N /= 4
			if configs[i].N < 256 {
				configs[i].N = 256
			}
		}
	}
	variants := hpl.PaperVariants()

	if *csv {
		fmt.Println("spec,variant,n,nb,gflops,facttime_ns")
	} else {
		fmt.Println("Figure 1: HPL performance (GFLOP/s), simulated paper cluster")
		fmt.Println(strings.Repeat("=", 64))
		fmt.Printf("%-14s", "variant \\ cfg")
		for _, c := range configs {
			fmt.Printf(" %12s", c.Spec)
		}
		fmt.Println()
	}

	for _, v := range variants {
		if !*csv {
			fmt.Printf("%-14s", shorten(v.Name))
		}
		for _, c := range configs {
			res := runOne(v, c)
			if res.Err != nil {
				fmt.Fprintf(os.Stderr, "hplbench: %s %s: %v\n", v.Name, c.Spec, res.Err)
				os.Exit(1)
			}
			if *csv {
				fmt.Printf("%s,%q,%d,%d,%.2f,%d\n", c.Spec, v.Name, c.N, c.NB, res.GFlops, res.FactTime)
			} else {
				fmt.Printf(" %12.2f", res.GFlops)
			}
		}
		if !*csv {
			fmt.Println()
		}
	}
	if !*csv {
		fmt.Println("\n(N per config:", sizes(configs), "NB = 64; phantom compute engine)")
	}
}

func runOne(v hpl.Variant, c hpl.FigureConfig) hpl.Result {
	topo, err := topology.ParseSpec(c.Spec)
	if err != nil {
		return hpl.Result{Err: err}
	}
	w, err := pgas.NewWorld(sim.NewEnv(), v.Model(machine.PaperCluster()), topo, trace.New())
	if err != nil {
		return hpl.Result{Err: err}
	}
	return hpl.Run(w, hpl.Config{N: c.N, NB: c.NB, P: c.P, Q: c.Q, Seed: 1, Level: v.Level})
}

func runVerify() {
	topo, _ := topology.ParseSpec("16(2)")
	w, _ := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
	res := hpl.Run(w, hpl.Config{N: 192, NB: 32, P: 4, Q: 4, Seed: 42,
		Level: core.LevelTwo, Real: true, Verify: true})
	if err := res.Verdict(); err != nil {
		fmt.Fprintln(os.Stderr, "hplbench verify: FAILED:", err)
		os.Exit(1)
	}
	fmt.Printf("verify: N=%d on 16 images: residual=%.3g, max |distributed-serial|=%.3g  => PASSED\n\n",
		res.N, res.Residual, res.MaxLUDiff)
}

func shorten(name string) string {
	r := strings.NewReplacer("UHCAF ", "UHCAF-", " backend", "", "CAF2.0 ", "CAF2.0-", " (no tuning)", "")
	return r.Replace(name)
}

func sizes(cfgs []hpl.FigureConfig) string {
	parts := make([]string, len(cfgs))
	for i, c := range cfgs {
		parts[i] = fmt.Sprintf("%s:N=%d", c.Spec, c.N)
	}
	return strings.Join(parts, " ")
}

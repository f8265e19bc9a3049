// Command teamsbench runs the Teams Microbenchmark suite (the paper's
// benchmark (1)): team barrier, all-to-all reduction and one-to-all
// broadcast latencies across placements and comparator stacks, reproducing
// experiments E1-E4 plus the E6/E7 ablations.
//
// Usage:
//
//	teamsbench [-exp overlap|e1|e2|e3|e4|e6|e7|all] [-backend sim|native] [-iters N] [-csv]
//	teamsbench -alg list
//	teamsbench -alg all [-algspecs 64(8),352(44)] [-elems N] [-iters N] [-csv]
//	teamsbench -alg allreduce [-algspecs ...]        # every allreduce algorithm
//	teamsbench -alg allreduce/ring,bcast/2level      # specific algorithms
//	teamsbench -alg alltoall,scan                    # the personalized/prefix kinds
//	teamsbench -exp regret [-algspecs ...] [-elems N]    # what auto picks against the best algorithm, per cell
//	teamsbench -exp autotable -out FILE              # regenerate the auto decision table (go generate ./internal/core)
//
// The -alg family sweeps the algorithm registry: every named
// algorithm of every collective kind (barrier, allreduce, reduceto, bcast,
// allgather, scatter, gather, alltoall, scan) is runnable by its registry
// name, the same name accepted by caf.Config.WithAlgorithm. For the rooted
// and personalized kinds -elems is the per-image block size.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"

	"cafteams/internal/bench"
	"cafteams/internal/core"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(experimentNames(), ", ")+` or all; "regret": the auto decision table against the best algorithm per cell; "autotable": regenerate that table into -out`)
	out := flag.String("out", "", "with -exp autotable: the Go source file to write the decision table to")
	iters := flag.Int("iters", 10, "episodes per measurement")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	alg := flag.String("alg", "", `sweep the algorithm registry: "list", "all", a kind ("allreduce"), or comma-separated "kind/name" entries`)
	algspecs := flag.String("algspecs", "16(4),64(8),352(44)", "comma-separated placements for -alg sweeps")
	elems := flag.Int("elems", 128, "vector elements for -alg sweeps of data collectives")
	backendFlag := flag.String("backend", "sim", `execution backend: "sim" (modeled cluster, simulated microseconds) or "native" (real goroutines, wall-clock microseconds)`)
	scale := flag.String("scale", "", `extreme-scale study: comma-separated image counts (e.g. "4096,16384,65536"); multi-level topologies, modeled time, byte-deterministic output`)
	scaleElems := flag.Int("scale-elems", 8, "vector elements for the data collectives of -scale")
	scaleIters := flag.Int("scale-iters", 2, "episodes per -scale measurement")
	scaleKinds := flag.String("scale-kinds", "", `with -scale: only these collective kinds (comma-separated, e.g. "barrier,allreduce"); empty = all`)
	flag.Parse()
	backend = *backendFlag

	err := checkFlags(*exp, *iters, *elems, *scaleElems, *scaleIters)
	switch {
	case err != nil:
	case *scale != "":
		err = runScaleStudy(os.Stdout, *scale, *scaleKinds, *scaleElems, *scaleIters)
	case *alg != "":
		err = runAlgSweep(*alg, *algspecs, *elems, *iters, *csv, backend)
	case *exp == "autotable":
		err = generateAutoTable(*out)
	case *exp == "regret":
		// Unless told otherwise, the cells of the repository benchmark's
		// coll-sweep: its auto_regret, from the product side.
		specs, sizes := "16(4),64(8),44(44)", []int{128, 4096}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "algspecs":
				specs = *algspecs
			case "elems":
				sizes = []int{*elems}
			}
		})
		err = runRegret(os.Stdout, specs, sizes)
	default:
		err = runExperiments(*exp, *iters, *csv)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "teamsbench:", err)
		os.Exit(1)
	}
}

// backend is the execution substrate every measurement runs on, set from
// the -backend flag ("sim" unless overridden).
var backend = "sim"

// checkFlags rejects, before anything is measured, the values that would
// otherwise divide by zero, size a negative buffer or select nothing.
func checkFlags(exp string, iters, elems, scaleElems, scaleIters int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"-iters", iters}, {"-elems", elems}, {"-scale-elems", scaleElems}, {"-scale-iters", scaleIters}} {
		if f.v < 1 {
			return fmt.Errorf("%s must be at least 1, got %d", f.name, f.v)
		}
	}
	if names := experimentNames(); exp != "all" && exp != "regret" && exp != "autotable" && !slices.Contains(names, exp) {
		return fmt.Errorf("-exp: unknown experiment %q (want %s or all; or regret, autotable for the auto decision table)", exp, strings.Join(names, ", "))
	}
	return nil
}

// runScaleStudy runs the extreme-scale sweeps: for each collective kind
// (all of them, or the -scale-kinds subset), the logarithmic-depth
// algorithms across the requested image counts on multi-level topologies.
// Output is modeled time and event counts only — byte-deterministic for a
// given argument set.
func runScaleStudy(w io.Writer, ns, kinds string, elems, iters int) error {
	var images []int
	for _, f := range strings.Split(ns, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("-scale: %q: %v", f, err)
		}
		images = append(images, n)
	}
	if len(images) == 0 {
		return fmt.Errorf("-scale: no image counts given")
	}
	want, err := parseScaleKinds(kinds)
	if err != nil {
		return err
	}
	for _, ka := range bench.ScaleKindAlgs {
		if len(want) > 0 && !want[ka.Kind.String()] {
			continue
		}
		var pts []bench.ScalePoint
		for _, alg := range ka.Algs {
			for _, n := range images {
				p, err := bench.MeasureScale(ka.Kind, alg, n, elems, iters)
				if err != nil {
					return err
				}
				pts = append(pts, p)
				// A 64k-image world leaves gigabytes of garbage behind;
				// hand the pages back before building the next one so
				// back-to-back large measurements don't ratchet RSS into
				// the OOM killer.
				debug.FreeOSMemory()
			}
		}
		bench.ScaleTable(w, ka.Kind.String(), pts)
		fmt.Fprintln(w)
	}
	return nil
}

// parseScaleKinds reads the -scale-kinds list into a set (empty: every kind of
// the study). A name that is not a kind of bench.ScaleKindAlgs is refused by
// name, with the kinds the study has, before anything is measured.
func parseScaleKinds(kinds string) (map[string]bool, error) {
	var known []string
	for _, ka := range bench.ScaleKindAlgs {
		known = append(known, ka.Kind.String())
	}
	want := map[string]bool{}
	for _, f := range strings.Split(kinds, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		if !slices.Contains(known, f) {
			return nil, fmt.Errorf("-scale-kinds: unknown kind %q in %q (known: %s)", f, kinds, strings.Join(known, ", "))
		}
		want[f] = true
	}
	return want, nil
}

// runAlgSweep measures named registry algorithms across placements on the
// given backend. sel is "list", "all", a bare kind name, or comma-separated
// "kind/name" entries.
func runAlgSweep(sel, specs string, elems, iters int, csv bool, backend string) error {
	if sel == "list" {
		for _, k := range core.Kinds() {
			fmt.Printf("%-10s %s\n", k, strings.Join(core.Algorithms(k), " "))
		}
		return nil
	}
	placements, err := placementList(specs)
	if err != nil {
		return err
	}
	// Resolve the selection to per-kind comparator lists.
	byKind := map[core.Kind][]bench.Comparator{}
	order := []core.Kind{}
	add := func(k core.Kind, cmps []bench.Comparator) {
		if len(byKind[k]) == 0 {
			order = append(order, k)
		}
		byKind[k] = append(byKind[k], cmps...)
	}
	switch {
	case sel == "all":
		for _, k := range core.Kinds() {
			add(k, bench.RegistryComparators(k))
		}
	default:
		for _, entry := range strings.Split(sel, ",") {
			kindName, algName, hasAlg := strings.Cut(entry, "/")
			k, err := core.ParseKind(kindName)
			if err != nil {
				return err
			}
			if !hasAlg {
				add(k, bench.RegistryComparators(k))
				continue
			}
			// "auto" (and "") are valid Tuning entries but name a per-call
			// selection rule, not a concrete algorithm — nothing to sweep.
			if algName == "" || algName == core.AlgAuto {
				return fmt.Errorf("%q is not sweepable: %q is a selection rule, not an algorithm (sweep the whole kind with %q instead)",
					entry, algName, kindName)
			}
			if !core.HasAlgorithm(k, algName) {
				return fmt.Errorf("unknown algorithm %q (registered for %s: %s)",
					entry, k, strings.Join(core.Algorithms(k), " "))
			}
			add(k, []bench.Comparator{bench.RegistryComparator(k, algName)})
		}
	}
	var csvPts []bench.Point // accumulated across kinds: one header, one block
	for _, k := range order {
		cmps := byKind[k]
		n := elems
		if k == core.KindBarrier {
			n = 1
		}
		var pts []bench.Point
		for _, spec := range placements {
			for _, c := range cmps {
				p, err := bench.Measure(spec, backend, c, n, iters)
				if err != nil {
					return err
				}
				pts = append(pts, p)
			}
		}
		if !csv {
			title := fmt.Sprintf("registry sweep: %s (%d elems, %s backend)", k, n, backend)
			bench.Table(os.Stdout, title, pts, cmps[0].Name)
			fmt.Println()
		} else {
			csvPts = append(csvPts, pts...)
		}
	}
	if csv {
		bench.CSV(os.Stdout, csvPts)
	}
	return nil
}

// runRegret prints the regret report for every kind on the placements at the
// sizes. As in the repository benchmark, sizes past the first run allgather
// and alltoall on the first placement only: their cost grows with the square
// of the image count.
func runRegret(w io.Writer, specs string, sizes []int) error {
	list, err := placementList(specs)
	if err != nil {
		return err
	}
	_, _, err = bench.RegretReport(w, bench.SweepCells(list, sizes, func(k core.Kind, spec, size int) bool {
		return spec == 0 || size == 0 || k != core.KindAllgather && k != core.KindAlltoall
	}))
	return err
}

// placementList splits the -algspecs value; a list with nothing in it would
// measure nothing and report success.
func placementList(specs string) ([]string, error) {
	var list []string
	for _, spec := range strings.Split(specs, ",") {
		if spec = strings.TrimSpace(spec); spec != "" {
			list = append(list, spec)
		}
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("-algspecs: no placements given in %q", specs)
	}
	return list, nil
}

// generateAutoTable sweeps the generator's grid and writes the fitted decision
// table to path — whole, or not at all: the file is part of the package this
// binary is built from — and the verdicts on the dominated algorithms to
// standard output.
func generateAutoTable(path string) error {
	if path == "" {
		return fmt.Errorf("-exp autotable needs -out FILE (go generate ./internal/core passes autotable_gen.go)")
	}
	var src bytes.Buffer
	if err := bench.GenerateAutoTable(&src, os.Stdout); err != nil {
		return err
	}
	return os.WriteFile(path, src.Bytes(), 0o644)
}

// experiment is one table of the paper reproduction: what -exp selects, the
// table's title, the row every ratio is taken against, and the cells.
type experiment struct {
	name, title, ref string
	points           func(iters int) ([]bench.Point, error)
}

var experiments = []experiment{
	{"overlap", "Overlap: blocking vs split-phase (nb-*) co_sum with compute between initiate and wait",
		"2level blocking (compute; co_sum)", overlap},
	// e1: one image per node; TDLB degenerates to dissemination.
	{"e1", "E1: barrier on a flat hierarchy (1 image/node) — TDLB vs dissemination parity",
		"GASNet RDMA dissemination",
		sweep([]bench.Row{bench.BarrierSet[0], bench.BarrierSet[2]}, []string{"4(4)", "8(8)", "16(16)", "32(32)", "44(44)"}, 1)},
	// e2: the paper's dense placement, full comparator set.
	{"e2", "E2: barrier with 8 images/node — TDLB vs the comparator stacks (paper: up to 26x over the UHCAF baseline)",
		"TDLB (2-level)",
		sweep(bench.BarrierSet, []string{"16(2)", "64(8)", "128(16)", "256(32)", "352(44)"}, 1)},
	{"e3", "E3: all-to-all reduction with 8 images/node (paper: up to 74x)",
		"two-level reduction",
		sweep(bench.ReduceSet, []string{"64(8)", "352(44)"}, 8, 128, 1024)},
	{"e4", "E4: one-to-all broadcast with 8 images/node (paper: up to 3x)",
		"two-level broadcast",
		sweep(bench.BcastSet, []string{"64(8)", "352(44)"}, 8, 128, 1024)},
	{"e6", "E6: ablation — intra-node x inter-node strategy choices for the team barrier",
		"TDLB: linear intra + dissemination inter",
		sweep(bench.StrategySet, []string{"64(8)", "352(44)"}, 1)},
	{"e7", "E7: multi-level extension — socket-aware 3-level barrier (paper future work)",
		"2-level (TDLB)",
		sweep(bench.LevelSet, []string{"64(8)", "176(22)", "352(44)"}, 1)},
}

func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// runExperiments measures the selected experiment ("all": every one, in
// table order) and prints its table, or its points as CSV.
func runExperiments(sel string, iters int, csv bool) error {
	for _, e := range experiments {
		if sel != "all" && sel != e.name {
			continue
		}
		pts, err := e.points(iters)
		if err != nil {
			return err
		}
		if csv {
			bench.CSV(os.Stdout, pts)
			continue
		}
		bench.Table(os.Stdout, e.title, pts, e.ref)
		fmt.Println()
	}
	return nil
}

// sweep is the cells of a comparison table: every row on every placement at
// every vector size. With more than one size the rows say which they are.
func sweep(rows []bench.Row, specs []string, elems ...int) func(iters int) ([]bench.Point, error) {
	return func(iters int) ([]bench.Point, error) {
		var pts []bench.Point
		for _, spec := range specs {
			for _, n := range elems {
				for _, r := range rows {
					p, err := bench.Measure(spec, backend, r.Comparator(), n, iters)
					if err != nil {
						return nil, err
					}
					if len(elems) > 1 {
						p.Comparator = fmt.Sprintf("%s [%d elems]", p.Comparator, n)
					}
					pts = append(pts, p)
				}
			}
		}
		return pts, nil
	}
}

// overlap: split-phase collectives — each episode computes ~55 us of local
// work and reduces a 128-element vector; the overlapped rows initiate the
// reduction first and compute while the progress engine drives it.
func overlap(iters int) ([]bench.Point, error) {
	const flops = 3e4
	var pts []bench.Point
	for _, spec := range []string{"16(2)", "64(8)", "352(44)"} {
		for _, alg := range []string{"2level", "rd"} {
			for _, c := range bench.OverlapComparators(alg, flops) {
				p, err := bench.Measure(spec, backend, c, 128, iters)
				if err != nil {
					return nil, err
				}
				pts = append(pts, p)
			}
		}
	}
	return pts, nil
}

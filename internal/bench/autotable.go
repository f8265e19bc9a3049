package bench

// The auto decision table, from the measuring side: the sweep that produces
// the samples, the fit that turns them into core.AutoRow lines, the Go source
// `go generate ./internal/core` checks in, and the regret report that holds
// the table against the best registered algorithm per cell. Everything here is
// modeled time, so every output is a pure function of the tree.

import (
	"bytes"
	"fmt"
	"go/format"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"

	"cafteams/internal/core"
)

// The generator's grid. Shapes span one, 2, 3–4, 5–16 and more than 16 images
// per node, on one and on two sockets, over 2 to 64 nodes ("NxSxC" is a
// machine shape, see parseSpec); payloads run from 8 B to 1 MiB of float64.
// autoByteBounds cuts the payload axis into buckets (upper bounds, exclusive)
// holding one swept size each, the other three cut the placement axes into
// classes (upper bounds, inclusive); the last of each is open. Classes are
// where the table may change its mind, not where it must: the fit cuts them
// into runs of neighbours that one row serves.
var (
	AutoShapes = []string{
		"4(4)", "8(8)", "16(16)", "32(32)", "44(44)", "64(64)", // one image per node
		"8(2)", "8(4)", "16(4)", "24(8)", "64(16)", "128(32)", "16x2x2", // 2–4 per node; the last on two sockets
		"16(2)", "32(2)", "48(4)", "64(8)", "128(16)", "256(32)", "8x1x8", // 5–16 per node; the last on one socket
		"48(2)", "96(4)", "192(8)", // more than 16 per node
	}
	AutoElems = []int{1, 16, 128, 1024, 4096, 16384, 131072}

	autoPerNodeBounds = []int{1, 2, 4, 16, math.MaxInt}
	autoSocketBounds  = []int{1, math.MaxInt}
	autoNodeBounds    = []int{2, 4, 8, 16, 32, 64, math.MaxInt}
	autoByteBounds    = []int{32, 512, 4 << 10, 16 << 10, 64 << 10, 512 << 10, math.MaxInt}
)

// HeldOutShapes are the placements the table is validated on and therefore
// never fitted to: GenerateAutoTable refuses a grid that holds one.
var HeldOutShapes = []string{"32(8)", "24(24)", "352(44)"}

// AutoEpisodes is the episodes per measurement — with CellComparator's
// rotating roots, what a cell of the repository benchmark runs.
const AutoEpisodes = 3

// autoTrafficBudget skips the cells of the generator's sweep whose payloads,
// summed over the images (every image's receive vector, for allgather and
// alltoall), exceed it. A simulated world holds scratch, staged puts and
// landing regions of some 20 to 70 times that: a 64-image scan of 1 MiB
// vectors peaks above 2 GB.
const autoTrafficBudget = 64 << 20

// Sample is one (kind, placement, payload) cell of a sweep: the modeled time
// of AutoEpisodes episodes of every registered algorithm that is not an alias.
type Sample struct {
	Kind  core.Kind
	Spec  string
	Elems int
	Key   core.AutoKey
	Algs  []string // registry order
	NS    []int64  // same order
}

// Best is the sample's fastest algorithm (the first in registry order among
// equals); with flat, the fastest hierarchy-oblivious one.
func (s Sample) Best(flat bool) (alg string, ns int64) {
	for i, a := range s.Algs {
		if flat && core.HierarchyAware(a) {
			continue
		}
		if alg == "" || s.NS[i] < ns {
			alg, ns = a, s.NS[i]
		}
	}
	return alg, ns
}

// Regret is alg's modeled time over the best's (over the best flat one's);
// equal times are regret 1, also when both are 0, as on a one-image team.
func (s Sample) Regret(alg string, flat bool) float64 {
	_, best := s.Best(flat)
	ns := s.NS[slices.Index(s.Algs, alg)]
	if ns == best {
		return 1
	}
	return float64(ns) / float64(best)
}

// SweepCells lists the cells of a sweep in (kind, elems, spec) order, every
// kind on every placement at every payload that keep (nil: all) lets through;
// barriers carry no payload and get one cell per placement.
func SweepCells(specs []string, elems []int, keep func(k core.Kind, spec, elem int) bool) []Sample {
	var cells []Sample
	for _, k := range core.Kinds() {
		for ei, e := range elems {
			if k == core.KindBarrier {
				if ei > 0 {
					break
				}
				e = 1
			}
			for si, spec := range specs {
				if keep == nil || keep(k, si, ei) {
					cells = append(cells, Sample{Kind: k, Spec: spec, Elems: e})
				}
			}
		}
	}
	return cells
}

// traffic is the payload bytes of one episode summed over the images: every
// image's vector, or its whole receive side for allgather and alltoall.
func traffic(k core.Kind, images, elems int) int64 {
	t := int64(images) * int64(elems) * 8
	if k == core.KindAllgather || k == core.KindAlltoall {
		t *= int64(images)
	}
	return t
}

// Sweep measures, for every cell, every algorithm of the kind that is not an
// alias (an "nb-" name runs its twin and times the same), on all CPUs.
func Sweep(cells []Sample) error {
	type job struct {
		cell, alg int
		heavy     bool
	}
	var jobs []job
	for ci := range cells {
		c := &cells[ci]
		topo, err := parseSpec(c.Spec)
		if err != nil {
			return err
		}
		heavy := traffic(c.Kind, topo.NumImages(), c.Elems) > autoTrafficBudget/2
		c.Algs = slices.DeleteFunc(core.Algorithms(c.Kind), func(a string) bool { return strings.HasPrefix(a, "nb-") })
		c.NS = make([]int64, len(c.Algs))
		for ai := range c.Algs {
			jobs = append(jobs, job{ci, ai, heavy})
		}
	}
	// Worlds are independent and modeled time does not depend on which runs
	// first: each worker takes the next job, results land by index. A heavy
	// world holds gigabytes, so those run one at a time however many CPUs
	// there are.
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		next    int
		failure error
		heavy   sync.Mutex
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := failure != nil || i >= len(jobs)
				mu.Unlock()
				if stop {
					return
				}
				c := &cells[jobs[i].cell]
				if jobs[i].heavy {
					heavy.Lock()
				}
				p, err := Measure(c.Spec, "sim", CellComparator(c.Kind, c.Algs[jobs[i].alg]), c.Elems, AutoEpisodes)
				if jobs[i].heavy {
					heavy.Unlock()
				}
				mu.Lock()
				if err != nil && failure == nil {
					failure = err
				}
				c.NS[jobs[i].alg] = int64(p.End)
				c.Key = p.Key
				if c.Kind == core.KindBarrier {
					c.Key.Bytes = 0
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failure
}

// geoRegret is the geomean of alg's regret over the samples.
func geoRegret(samples []Sample, alg string, flat bool) float64 {
	sum := 0.0
	for _, s := range samples {
		sum += math.Log(s.Regret(alg, flat))
	}
	return math.Exp(sum / float64(len(samples)))
}

// tieTolerance is how far behind the best algorithm a row's pick may be on
// any cell the row covers: the table departs from the paper's methodology only
// where the sweep shows more than a near-tie.
const tieTolerance = 1.02

// pick is the algorithm among algs with the lowest geomean regret over the
// samples (the first in algs among equals), unless a preferred one is within
// tieTolerance of it.
func pick(samples []Sample, algs []string, flat bool, prefer ...string) string {
	best, bestRegret := "", 0.0
	regret := map[string]float64{}
	for _, a := range algs {
		regret[a] = geoRegret(samples, a, flat)
		if best == "" || regret[a] < bestRegret {
			best, bestRegret = a, regret[a]
		}
	}
	for _, a := range prefer {
		if r, ok := regret[a]; ok && r <= bestRegret*tieTolerance {
			return a
		}
	}
	return best
}

// FitRow is one fitted line of the table with the samples it was fitted to.
type FitRow struct {
	core.AutoRow
	Samples []Sample
}

// fitAxes are the table's axes in the order its rows are sorted by.
var fitAxes = []struct {
	bounds []int
	of     func(core.AutoKey) int
	field  func(*core.AutoRow) *int
}{
	{autoPerNodeBounds, func(k core.AutoKey) int { return k.PerNode }, func(r *core.AutoRow) *int { return &r.PerNode }},
	{autoSocketBounds, func(k core.AutoKey) int { return k.Sockets }, func(r *core.AutoRow) *int { return &r.Sockets }},
	{autoNodeBounds, func(k core.AutoKey) int { return k.Nodes }, func(r *core.AutoRow) *int { return &r.Nodes }},
	// A row holds bytes < Below: as an inclusive bound, bytes+1 <= Below.
	{autoByteBounds, func(k core.AutoKey) int { return k.Bytes + 1 }, func(r *core.AutoRow) *int { return &r.Below }},
}

// FitAutoTable fits one kind's rows to that kind's samples: the fewest
// first-match rows whose pick is within tieTolerance of the best algorithm on
// every cell its row covers. The table is a decision tree flattened: images
// per node, then sockets, then nodes, then bytes. On each axis the sampled
// classes are cut into runs of neighbours and each run is fitted on the next
// axis; a run's row bound is its last class's bound, so a class nobody sampled
// is covered by the next sampled one up, and the last run is open — the sorted
// rows answer every key by first match. A class alone on every axis that no
// algorithm serves keeps the lowest geomean regret, so a fit always exists for
// samples that hold some of kind k's.
func FitAutoTable(k core.Kind, samples []Sample) []FitRow {
	samples = slices.DeleteFunc(slices.Clone(samples), func(s Sample) bool { return s.Kind != k })
	return fit(k, samples, 0, true)
}

// fit is the fewest rows for the samples on the axes from axis on, nil when
// none serves them; alone says every axis before this one cut them to one
// class. The cut is a suffix DP over run ends: rows[i] is the fewest rows for
// classes i and up, ties to the shortest first run.
func fit(k core.Kind, samples []Sample, axis int, alone bool) []FitRow {
	if axis == len(fitAxes) {
		return leaf(k, samples, alone)
	}
	ax := fitAxes[axis]
	var classes [][]Sample
	var bounds []int
	lo := math.MinInt
	for _, bound := range ax.bounds {
		var class []Sample
		for _, s := range samples {
			if v := ax.of(s.Key); v > lo && v <= bound {
				class = append(class, s)
			}
		}
		if lo = bound; class != nil {
			classes, bounds = append(classes, class), append(bounds, bound)
		}
	}
	n := len(classes)
	bounds[n-1] = math.MaxInt // the last run is open
	rows := make([][]FitRow, n+1)
	rows[n] = []FitRow{}
	for i := n - 1; i >= 0; i-- {
		for j := i; j < n; j++ {
			if rows[j+1] == nil {
				continue
			}
			run := fit(k, slices.Concat(classes[i:j+1]...), axis+1, alone && i == j)
			if run == nil || rows[i] != nil && len(run)+len(rows[j+1]) >= len(rows[i]) {
				continue
			}
			for r := range run {
				*ax.field(&run[r].AutoRow) = bounds[j]
			}
			rows[i] = slices.Concat(run, rows[j+1])
		}
	}
	return rows[0]
}

// leaf is the one row for samples the axes cut no further. It runs the
// hierarchy level's own choice — what LevelAuto would run, then the
// three-level choice where there are sockets to split by — when that serves
// every cell within tieTolerance, else the lowest geomean regret among the
// algorithms that do; with none, nil, unless the samples are alone on every
// axis. The flat pick is the lowest geomean regret among the
// hierarchy-oblivious algorithms, the flat level's choice within tieTolerance.
func leaf(k core.Kind, samples []Sample, alone bool) []FitRow {
	prefer := []string{core.LevelChoice(k, core.LevelFlat)}
	if key := samples[0].Key; key.PerNode > 1 {
		prefer[0] = core.LevelChoice(k, core.LevelTwo)
		if key.Sockets > 1 {
			prefer = append(prefer, core.LevelChoice(k, core.LevelThree))
		}
	}
	var serving, flat []string
	for _, a := range samples[0].Algs {
		if !slices.ContainsFunc(samples, func(s Sample) bool { return s.Regret(a, false) > tieTolerance }) {
			serving = append(serving, a)
		}
		if !core.HierarchyAware(a) {
			flat = append(flat, a)
		}
	}
	if serving == nil {
		if !alone {
			return nil
		}
		serving = samples[0].Algs
	}
	return []FitRow{{
		AutoRow: core.AutoRow{
			Alg:  pick(samples, serving, false, prefer...),
			Flat: pick(samples, flat, true, core.LevelChoice(k, core.LevelFlat)),
		},
		Samples: samples,
	}}
}

// GenerateAutoTable sweeps the generator's grid and writes the fitted table as
// the Go source of internal/core/autotable_gen.go to w.
func GenerateAutoTable(w io.Writer) error {
	var images []int
	for _, spec := range AutoShapes {
		topo, err := parseSpec(spec)
		if err != nil {
			return err
		}
		for _, held := range HeldOutShapes {
			if h, _ := parseSpec(held); h.NumImages() == topo.NumImages() && h.NumNodes() == topo.NumNodes() {
				return fmt.Errorf("bench: %s is a held-out placement (%s): the table may not be fitted to it", spec, held)
			}
		}
		images = append(images, topo.NumImages())
	}
	samples := SweepCells(AutoShapes, AutoElems, func(k core.Kind, spec, elem int) bool {
		return traffic(k, images[spec], AutoElems[elem]) <= autoTrafficBudget
	})
	if err := Sweep(samples); err != nil {
		return err
	}
	return writeAutoTable(w, samples)
}

func writeAutoTable(w io.Writer, samples []Sample) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by teamsbench -exp autotable (go generate ./internal/core); DO NOT EDIT.\n\n"+
		"package core\n\n"+
		"// autoTable is the decision table AutoPick reads: per kind, sorted rows of\n"+
		"// {images per node <=, sockets <=, nodes <=, payload bytes <, pick, flat pick},\n"+
		"// first match wins. Fitted (internal/bench.FitAutoTable) to a sweep of every\n"+
		"// registered algorithm, %d episodes with rotating roots, on the placements\n//\n//\t%s\n//\n"+
		"// at %v float64 elements (cells above %d MiB of payload skipped): the fewest\n"+
		"// rows whose pick is within %.2fx of the best algorithm on every cell they\n"+
		"// cover, except where one class on every axis has no such algorithm. A row's\n"+
		"// comment gives the sweep cells it covers and, over them, the geomean and the\n"+
		"// worst ratio of the pick's modeled time to the best algorithm's.\n"+
		"var autoTable = [numKinds][]AutoRow{\n",
		AutoEpisodes, strings.Join(AutoShapes, " "), AutoElems, autoTrafficBudget>>20, tieTolerance)
	num := func(v int) string {
		if v == math.MaxInt {
			return "inf"
		}
		return fmt.Sprint(v)
	}
	for _, k := range core.Kinds() {
		fmt.Fprintf(&b, "\t%d: { // %s\n", int(k), k)
		for _, r := range FitAutoTable(k, samples) {
			worst := 0.0
			for _, s := range r.Samples {
				worst = max(worst, s.Regret(r.Alg, false))
			}
			fmt.Fprintf(&b, "\t\t{%s, %s, %s, %s, %q, %q}, // %d cells, %.3f, worst %.3f\n",
				num(r.PerNode), num(r.Sockets), num(r.Nodes), num(r.Below), r.Alg, r.Flat,
				len(r.Samples), geoRegret(r.Samples, r.Alg, false), worst)
		}
		b.WriteString("\t},\n")
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		return fmt.Errorf("bench: generated table does not parse: %v", err)
	}
	_, err = w.Write(src)
	return err
}

// RegretReport sweeps the cells and prints, per cell, what the decision table
// picks, the row that matched, the best registered algorithm and the pick's
// regret (its modeled time over the best's), then the geomean, the cells
// behind the best and the worst — the repository benchmark's auto_regret,
// core.auto_cells_suboptimal and core.auto_worst_regret when the cells are its
// cells. It returns the geomean and the worst.
func RegretReport(w io.Writer, cells []Sample) (geomean, worst float64, err error) {
	if err := Sweep(cells); err != nil {
		return 0, 0, err
	}
	fmt.Fprintf(w, "%-10s %-9s %7s  %-18s %-18s %7s  %s\n", "kind", "spec", "elems", "auto picks", "best", "regret", "table row")
	sum, behind := 0.0, 0
	for _, s := range cells {
		row, i := core.AutoPick(s.Kind, s.Key)
		best, _ := s.Best(false)
		r := s.Regret(row.Alg, false)
		elems := "-"
		if s.Kind != core.KindBarrier {
			elems = fmt.Sprint(s.Elems)
		}
		fmt.Fprintf(w, "%-10s %-9s %7s  %-18s %-18s %7.3f  #%d: %s\n", s.Kind, s.Spec, elems, row.Alg, best, r, i, row)
		sum += math.Log(r)
		if r > 1 {
			behind++
		}
		worst = max(worst, r)
	}
	geomean = math.Exp(sum / float64(len(cells)))
	fmt.Fprintf(w, "\ngeomean regret %.4f over %d cells, %d behind the best, worst %.3f\n", geomean, len(cells), behind, worst)
	return geomean, worst, nil
}

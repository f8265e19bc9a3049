package bench

// The auto decision table, from the measuring side: the sweep that produces
// the samples, the fit that turns them into core.AutoRow lines, the Go source
// `go generate ./internal/core` checks in, the verdicts on the algorithms the
// sweep never or rarely favours, and the regret report that holds the table
// against the best registered algorithm per cell. Everything here is modeled
// time, so every output is a pure function of the tree.

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

// The generator's grid. Shapes span one, 2–4, 5–16 and more than 16 images
// per node, on one and on two sockets, over 2 to 64 nodes ("NxSxC" is a
// machine shape, see parseSpec); payloads run from 8 B to 1 MiB of float64.
// autoByteBounds cuts the payload axis into buckets (upper bounds, exclusive)
// holding one swept size each, the other three cut the placement axes into
// classes (upper bounds, inclusive); the last of each is open. Classes are
// where the table may change its mind, not where it must: the fit merges the
// neighbours that agree.
var (
	AutoShapes = []string{
		"4(4)", "8(8)", "16(16)", "32(32)", "44(44)", "64(64)", // one image per node
		"8(2)", "8(4)", "16(4)", "24(8)", "64(16)", "128(32)", "16x2x2", // 2–4 per node; the last on two sockets
		"16(2)", "32(2)", "48(4)", "64(8)", "128(16)", "256(32)", "8x1x8", // 5–16 per node; the last on one socket
		"48(2)", "96(4)", "192(8)", // more than 16 per node
	}
	AutoElems = []int{1, 16, 128, 1024, 4096, 16384, 131072}

	autoPerNodeBounds = []int{1, 4, 16, math.MaxInt}
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

// Regret is alg's modeled time over the best's (over the best flat one's).
func (s Sample) Regret(alg string, flat bool) float64 {
	_, best := s.Best(flat)
	return float64(s.NS[slices.Index(s.Algs, alg)]) / float64(best)
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

// tieTolerance is how far behind the lowest geomean regret the hierarchy
// level's own choice may be and still be kept: the table then departs from the
// paper's methodology only where the sweep shows more than a near-tie.
const tieTolerance = 1.02

// pickFor is the algorithm one cell of the table runs: the lowest geomean
// regret over the cell's samples (the first in registry order among equals),
// unless a preferred algorithm is within tieTolerance of it.
func pickFor(samples []Sample, flat bool, prefer ...string) string {
	best, bestRegret := "", 0.0
	regret := map[string]float64{}
	for _, a := range samples[0].Algs {
		if flat && core.HierarchyAware(a) {
			continue
		}
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

// FitAutoTable fits one kind's rows to that kind's samples. The table is a
// decision tree flattened: images per node, then sockets, then nodes, then
// bytes. On each axis the samples fall into classes; a class nobody sampled is
// covered by its neighbour (the next sampled class up, or the last one),
// neighbouring classes merge while one fit serves both about as well as two
// (see mergeable), and the last is open — so the sorted rows answer every key
// by first match.
func FitAutoTable(k core.Kind, samples []Sample) []FitRow {
	samples = slices.DeleteFunc(slices.Clone(samples), func(s Sample) bool { return s.Kind != k })
	return fitAxis(k, samples, 0)
}

func fitAxis(k core.Kind, samples []Sample, axis int) []FitRow {
	if axis == len(fitAxes) {
		// Preferred: what the hierarchy level alone would run under
		// LevelAuto, then the three-level choice where there are sockets to
		// split by.
		prefer := []string{core.LevelChoice(k, core.LevelFlat)}
		if key := samples[0].Key; key.PerNode > 1 {
			prefer[0] = core.LevelChoice(k, core.LevelTwo)
			if key.Sockets > 1 {
				prefer = append(prefer, core.LevelChoice(k, core.LevelThree))
			}
		}
		return []FitRow{{
			AutoRow: core.AutoRow{
				Alg:  pickFor(samples, false, prefer...),
				Flat: pickFor(samples, true, core.LevelChoice(k, core.LevelFlat)),
			},
			Samples: samples,
		}}
	}
	ax := fitAxes[axis]
	var out, cur []FitRow // finished classes; the class being grown, this axis's bound not yet set
	var curSamples []Sample
	curBound := 0
	flush := func(bound int) {
		for _, r := range cur {
			*ax.field(&r.AutoRow) = bound
			out = append(out, r)
		}
	}
	lo := math.MinInt
	for _, bound := range ax.bounds {
		var sub []Sample
		for _, s := range samples {
			if v := ax.of(s.Key); v > lo && v <= bound {
				sub = append(sub, s)
			}
		}
		lo = bound
		if len(sub) == 0 {
			continue
		}
		rows := fitAxis(k, sub, axis+1)
		if cur != nil {
			both := slices.Concat(curSamples, sub)
			var merged []FitRow
			if slices.EqualFunc(cur, rows, func(a, b FitRow) bool { return a.AutoRow == b.AutoRow }) {
				// The same rows twice are one class whatever a fit to both
				// would say.
				merged = slices.Clone(cur)
				for i := range merged {
					merged[i].Samples = slices.Concat(cur[i].Samples, rows[i].Samples)
				}
			} else {
				merged = fitAxis(k, both, axis+1)
			}
			if mergeable(merged, cur, rows) {
				cur, curSamples, curBound = merged, both, bound
				continue
			}
			flush(curBound)
		}
		cur, curSamples, curBound = rows, sub, bound
	}
	flush(math.MaxInt)
	return out
}

// mergeCellCap is the regret a merge of two classes may leave a cell of the
// sweep at, unless the cell was already worse: the 5 % within which the
// verdicts call an algorithm as good as the best.
const mergeCellCap = 1.05

// mergeable reports whether merged, one fit to the samples of two
// neighbouring classes, may replace their separate fits a and b: it takes no
// more rows than the larger of them (or the deeper axes are standing in for
// the difference between the classes), its geomean regret is within
// tieTolerance of theirs, and no cell ends above mergeCellCap that was not
// there before.
func mergeable(merged, a, b []FitRow) bool {
	if len(merged) > max(len(a), len(b)) {
		return false
	}
	split := slices.Concat(a, b)
	type cell struct {
		spec  string
		elems int
	}
	regrets := func(rows []FitRow) (map[cell]float64, float64) {
		by, sum := map[cell]float64{}, 0.0
		for _, r := range rows {
			for _, s := range r.Samples {
				by[cell{s.Spec, s.Elems}] = s.Regret(r.Alg, false)
				sum += math.Log(by[cell{s.Spec, s.Elems}])
			}
		}
		return by, math.Exp(sum / float64(len(by)))
	}
	before, costBefore := regrets(split)
	after, costAfter := regrets(merged)
	if costAfter > costBefore*tieTolerance {
		return false
	}
	for c, r := range after {
		if r > max(before[c], mergeCellCap) {
			return false
		}
	}
	return true
}

// GenerateAutoTable sweeps the generator's grid and writes the fitted table as
// the Go source of internal/core/autotable_gen.go to src and the verdicts on
// the algorithms no hand rule should have favoured to report.
func GenerateAutoTable(src, report io.Writer) error {
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
	if err := writeAutoTable(src, samples); err != nil {
		return err
	}
	Verdicts(report, samples)
	return nil
}

func writeAutoTable(w io.Writer, samples []Sample) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by teamsbench -exp autotable (go generate ./internal/core); DO NOT EDIT.\n\n"+
		"package core\n\n"+
		"// autoTable is the decision table AutoPick reads: per kind, sorted rows of\n"+
		"// {images per node <=, sockets <=, nodes <=, payload bytes <, pick, flat pick},\n"+
		"// first match wins. Fitted (internal/bench.FitAutoTable) to a sweep of every\n"+
		"// registered algorithm, %d episodes with rotating roots, on the placements\n//\n//\t%s\n//\n"+
		"// at %v float64 elements (cells above %d MiB of payload skipped). A row's\n"+
		"// comment gives the sweep cells it covers and, over them, the geomean and the\n"+
		"// worst ratio of the pick's modeled time to the best algorithm's.\n"+
		"var autoTable = [numKinds][]AutoRow{\n",
		AutoEpisodes, strings.Join(AutoShapes, " "), AutoElems, autoTrafficBudget>>20)
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

// verdictAlgs are the algorithms the golden coll-sweep table shows at least
// 1.4x off the best at every cell it has.
var verdictAlgs = []struct {
	kind core.Kind
	alg  string
}{
	{core.KindAllreduce, "ring"}, {core.KindBroadcast, "scatter-allgather"},
	{core.KindReduceTo, "linear"}, {core.KindBarrier, "linear"}, {core.KindBarrier, "tdlb3"},
}

// Verdicts prints, for each of verdictAlgs, the cells of the sweep where it is
// within 5 % of the best registered algorithm — or how far off it stays.
func Verdicts(w io.Writer, samples []Sample) {
	for _, va := range verdictAlgs {
		var near []string
		cells, closest := 0, math.Inf(1)
		for _, s := range samples {
			if s.Kind != va.kind {
				continue
			}
			cells++
			r := s.Regret(va.alg, false)
			closest = min(closest, r)
			if r <= 1.05 {
				near = append(near, fmt.Sprintf("%s/%d (%.2fx)", s.Spec, s.Elems, r))
			}
		}
		if len(near) == 0 {
			fmt.Fprintf(w, "%s/%s: never within %.2fx of the best on %d cells\n", va.kind, va.alg, closest, cells)
		} else {
			fmt.Fprintf(w, "%s/%s: within 5%% of the best on %d of %d cells: %s\n", va.kind, va.alg, len(near), cells, strings.Join(near, ", "))
		}
	}
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

package bench

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cafteams/internal/core"
)

// TestAutoTableHeldOut is the table's validation on placements its generator
// never saw: 32(8) and 24(24) at every kind, 128 and 4096 elements, and the
// paper's 352(44) for barrier, allreduce, reduceto and bcast at 8 and 1024.
// The pick of the checked-in table may trail the best registered algorithm by
// 5 % in the geomean and by 25 % in no cell. Under -short: the two small
// placements at 128 elements.
func TestAutoTableHeldOut(t *testing.T) {
	cells := SweepCells(HeldOutShapes[:2], []int{128, 4096}, func(_ core.Kind, _, elem int) bool {
		return elem == 0 || !testing.Short()
	})
	if !testing.Short() {
		cells = append(cells, SweepCells(HeldOutShapes[2:], []int{8, 1024}, func(k core.Kind, _, _ int) bool {
			return k <= core.KindBroadcast
		})...)
	}
	var report bytes.Buffer
	geo, worst, err := RegretReport(&report, cells)
	if err != nil {
		t.Fatal(err)
	}
	if geo > 1.05 || worst > 1.25 {
		t.Errorf("held-out geomean regret %.4f (limit 1.05), worst cell %.3f (limit 1.25)\n%s", geo, worst, &report)
	} else {
		t.Logf("held-out geomean regret %.4f over %d cells, worst %.3f", geo, len(cells), worst)
	}
}

// TestGeneratorRefusesHeldOutShapes: a held-out placement in the generator's
// grid, under any spelling, fails the generation before anything is measured.
func TestGeneratorRefusesHeldOutShapes(t *testing.T) {
	defer func(grid []string) { AutoShapes = grid }(AutoShapes)
	for _, spec := range []string{"24(24)", "352(44)", "8x2x2"} { // the last is 32 images on 8 nodes
		AutoShapes = []string{"8(2)", spec}
		var src bytes.Buffer
		if err := GenerateAutoTable(&src); err == nil || !strings.Contains(err.Error(), "held-out") || src.Len() > 0 {
			t.Errorf("grid with %s: error %v, %d bytes of table written; want a held-out refusal and nothing", spec, err, src.Len())
		}
	}
}

// synthetic is a sample of an imaginary three-algorithm scatter sweep.
func synthetic(perNode, sockets, nodes, elems int, linear, binomial, twoLevel int64) Sample {
	return Sample{Kind: core.KindScatter, Spec: fmt.Sprintf("%dx%d/%d", perNode*nodes, nodes, sockets), Elems: elems,
		Key:  core.AutoKey{PerNode: perNode, Sockets: sockets, Nodes: nodes, Bytes: 8 * elems},
		Algs: []string{"linear", "binomial", "2level"}, NS: []int64{linear, binomial, twoLevel}}
}

// fitted fits kind scatter to samples and prints the rows; every sample of
// the kind must look up the row that was fitted to it.
func fitted(t *testing.T, samples []Sample) ([]FitRow, []core.AutoRow, []string) {
	t.Helper()
	rows := FitAutoTable(core.KindScatter, samples)
	var got []string
	var bare []core.AutoRow
	for _, r := range rows {
		got = append(got, fmt.Sprintf("%v -> %s/%s (%d)", r.AutoRow, r.Alg, r.Flat, len(r.Samples)))
		bare = append(bare, r.AutoRow)
	}
	for _, s := range samples {
		if s.Kind != core.KindScatter {
			continue
		}
		if i := core.FirstMatch(bare, s.Key); i < 0 || !containsSample(rows[i].Samples, s) {
			t.Errorf("sample %s/%d looks up row %d, which was not fitted to it", s.Spec, s.Elems, i)
		}
	}
	return rows, bare, got
}

// TestFitAutoTable fits sweeps small enough to read: classes one pick serves
// share a row, a class that pick leaves more than the tolerance behind keeps
// its own, the hierarchy level's own choice wins a near-tie, an unsampled class
// is covered by its neighbour, the flat pick is never hierarchy-aware, and a
// class alone on every axis that no algorithm serves gets the lowest geomean.
func TestFitAutoTable(t *testing.T) {
	for _, c := range []struct {
		name    string
		samples []Sample
		want    []string
	}{{
		name: "classes",
		samples: []Sample{
			// One image per node: binomial (the level's choice) within 2 % of linear.
			synthetic(1, 1, 8, 128, 100, 101, 150), synthetic(1, 1, 8, 4096, 100, 102, 150),
			// 4 per node: 2level wins small payloads, linear large ones — on 4 and on 16 nodes alike.
			synthetic(4, 1, 4, 128, 200, 300, 100), synthetic(4, 1, 4, 4096, 100, 300, 150),
			synthetic(4, 1, 16, 128, 210, 300, 100), synthetic(4, 1, 16, 4096, 100, 310, 160),
			// 8 per node on two sockets: 2level everywhere, by a lot.
			synthetic(8, 2, 8, 128, 400, 300, 100), synthetic(8, 2, 8, 4096, 400, 300, 100),
			// Another kind's samples are not this kind's business.
			{Kind: core.KindGather, Spec: "x", Elems: 128, Key: core.AutoKey{PerNode: 1, Sockets: 1, Nodes: 2, Bytes: 1024},
				Algs: []string{"linear", "binomial", "2level"}, NS: []int64{1, 2, 3}},
		},
		want: []string{
			"<=1 per node, any sockets, any nodes, any size -> binomial/binomial (2)",
			"<=4 per node, any sockets, any nodes, <4096 B -> 2level/linear (2)",
			"<=4 per node, any sockets, any nodes, any size -> linear/linear (2)",
			"any per node, any sockets, any nodes, any size -> 2level/binomial (2)",
		},
	}, {
		// One pick for both node classes leaves a cell 3.5 % behind (a
		// greedy merge within 5 % per cell took it): two rows.
		name:    "a shared pick 3.5 % behind",
		samples: []Sample{synthetic(1, 1, 4, 128, 1000, 1035, 2000), synthetic(1, 1, 8, 128, 1035, 1000, 2000)},
		want: []string{
			"any per node, any sockets, <=4 nodes, any size -> linear/linear (1)",
			"any per node, any sockets, any nodes, any size -> binomial/binomial (1)",
		},
	}, {
		// 1 KiB and 2 KiB are one payload class: linear is 3 % behind on
		// one, binomial 10 % on the other, 2level 20 % on both.
		name:    "alone and unserved",
		samples: []Sample{synthetic(4, 1, 4, 128, 100, 110, 120), synthetic(4, 1, 4, 256, 103, 100, 120)},
		want:    []string{"any per node, any sockets, any nodes, any size -> linear/linear (2)"},
	}} {
		_, bare, got := fitted(t, c.samples)
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s: fitted rows:\n%s\nwant:\n%s", c.name, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
		}
		if c.name != "classes" {
			continue
		}
		// 3 per node on two sockets, 64 nodes, 2 MiB: nobody sampled anything like it.
		if i := core.FirstMatch(bare, core.AutoKey{PerNode: 3, Sockets: 2, Nodes: 64, Bytes: 2 << 20}); i != 2 {
			t.Errorf("unsampled key matched row %d, want the last row of its images-per-node class (2)", i)
		}
	}
}

// TestFitAutoTableProperties fits seeded random sweeps, some near-ties and
// some spread wide: every row whose cells span two classes on some axis has a
// pick within tieTolerance of the best on each of them, every sample is in one
// row and looks that row up, and a second fit is the same.
func TestFitAutoTableProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	perNode, nodes := []int{1, 2, 3, 4, 8, 16, 32}, []int{2, 3, 4, 8, 16, 44, 64}
	class := func(axis int, s Sample) int {
		i, _ := slices.BinarySearch(fitAxes[axis].bounds, fitAxes[axis].of(s.Key))
		return i
	}
	for sweep := range 20 {
		spread := []int64{30, 300}[sweep%2]
		var samples []Sample
		for range 30 {
			ns := func() int64 { return 1000 + rng.Int64N(spread) }
			s := synthetic(perNode[rng.IntN(len(perNode))], 1+rng.IntN(2), nodes[rng.IntN(len(nodes))], AutoElems[rng.IntN(len(AutoElems))], ns(), ns(), ns())
			if !containsSample(samples, s) {
				samples = append(samples, s)
			}
		}
		rows, _, _ := fitted(t, samples)
		if again := FitAutoTable(core.KindScatter, samples); !reflect.DeepEqual(rows, again) {
			t.Errorf("sweep %d: two fits of the same samples differ", sweep)
		}
		cells := 0
		for _, r := range rows {
			cells += len(r.Samples)
			alone := true
			for axis := range fitAxes {
				alone = alone && !slices.ContainsFunc(r.Samples, func(s Sample) bool { return class(axis, s) != class(axis, r.Samples[0]) })
			}
			for _, s := range r.Samples {
				if reg := s.Regret(r.Alg, false); !alone && reg > tieTolerance {
					t.Errorf("sweep %d: row %v runs %s, %.3fx behind on %s/%d", sweep, r.AutoRow, r.Alg, reg, s.Spec, s.Elems)
				}
			}
		}
		if cells != len(samples) {
			t.Errorf("sweep %d: rows cover %d cells, %d sampled", sweep, cells, len(samples))
		}
	}
}

func containsSample(list []Sample, s Sample) bool {
	for _, x := range list {
		if x.Spec == s.Spec && x.Elems == s.Elems {
			return true
		}
	}
	return false
}

// TestSweepReproducesTheBenchmarksCells holds the product-side measurement to
// the repository benchmark's: a sweep of 16(4) at the benchmark's two sizes
// gives, for every registered algorithm, the modeled nanoseconds of the
// benchmark's golden table — rotating roots, exclusive scans on odd episodes
// and all. The generator learns from the numbers the benchmark judges by.
//
// A product PR may not re-baseline the table, so the rows one has moved are
// amendments to it, in .github/golden-drift-allowed.txt ("key: modeled_ns old ->
// new, ..."): a listed row is expected at its new value, and one the sweep
// still reproduces at the golden value is a stale amendment.
func TestSweepReproducesTheBenchmarksCells(t *testing.T) {
	golden := map[string]int64{}
	for _, line := range readLines(t, "../../benchmark/golden/coll-sweep.tsv") {
		if fields := strings.Split(line, "\t"); len(fields) > 1 {
			golden[fields[0]], _ = strconv.ParseInt(fields[1], 10, 64)
		}
	}
	amended := map[string]int64{}
	for _, line := range readLines(t, "../../.github/golden-drift-allowed.txt") {
		var key string
		var old, ns int64
		if strings.HasPrefix(line, "#") || !strings.Contains(line, " modeled_ns ") {
			continue // a reason, or a row of a table without modeled time (cluster-stream)
		}
		if _, err := fmt.Sscanf(line, "%s modeled_ns %d -> %d", &key, &old, &ns); err != nil {
			t.Fatalf("amendment %q: %v", line, err)
		}
		key = strings.TrimSuffix(key, ":")
		if g, ok := golden[key]; ok && g != old {
			t.Errorf("amendment %q: the golden row says %d", line, g)
		}
		amended[key] = ns
	}
	cells := SweepCells([]string{"16(4)"}, []int{128, 4096}, nil)
	if err := Sweep(cells); err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, s := range cells {
		size := "-"
		if s.Kind != core.KindBarrier {
			size = fmt.Sprint(s.Elems)
		}
		for i, alg := range s.Algs {
			key := fmt.Sprintf("%s/%s@%s/%s", s.Kind, alg, s.Spec, size)
			want, ok := golden[key]
			ns, listed := amended[key]
			switch {
			case !ok:
				t.Errorf("%s is not in the golden table", key)
			case listed && s.NS[i] == want:
				t.Errorf("%s: swept the golden row's %d modeled ns, its amendment to %d is stale", key, want, ns)
			case listed && s.NS[i] != ns:
				t.Errorf("%s: swept %d modeled ns, the golden row's amendment says %d", key, s.NS[i], ns)
			case !listed && s.NS[i] != want:
				t.Errorf("%s: swept %d modeled ns, the benchmark's golden row says %d", key, s.NS[i], want)
			}
			compared++
		}
	}
	if compared < 60 {
		t.Errorf("only %d cells compared", compared)
	}
}

// readLines returns the lines of a checked-in text file.
func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(b), "\n"), "\n")
}

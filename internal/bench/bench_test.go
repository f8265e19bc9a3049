package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"cafteams/internal/core"
	"cafteams/internal/sim"
)

// TestComparatorSetsNonEmpty: every row of the paper sets resolves to a
// registered algorithm, and the labels — the row names of `teamsbench -exp
// all` — are the ones the tables have always carried, in order.
func TestComparatorSetsNonEmpty(t *testing.T) {
	for _, c := range []struct {
		set    string
		rows   []Row
		labels []string
	}{
		{"barrier", BarrierSet, []string{"TDLB (2-level)", "UHCAF dissemination (AM)", "GASNet RDMA dissemination",
			"GASNet IB dissemination", "MPI dissemination", "MPI hierarchical", "linear (centralized)"}},
		{"reduce", ReduceSet, []string{"two-level reduction", "UHCAF linear (AM)", "flat recursive doubling",
			"flat binomial tree", "ring allreduce"}},
		{"bcast", BcastSet, []string{"two-level broadcast", "UHCAF binomial (AM)", "flat binomial",
			"scatter-allgather", "linear (centralized)"}},
		{"strategy", StrategySet, []string{"TDLB: linear intra + dissemination inter", "TDLL: linear intra + linear inter",
			"flat dissemination (no hierarchy)", "flat linear (no hierarchy)", "flat tournament (no hierarchy)",
			"flat binomial tree (no hierarchy)"}},
		{"level", LevelSet, []string{"2-level (TDLB)", "3-level (TDLB3, socket-aware)", "flat dissemination"}},
	} {
		var labels []string
		for _, r := range c.rows {
			labels = append(labels, r.Label)
			if r.Alg == core.AlgAuto || !core.HasAlgorithm(r.Kind, r.Alg) {
				t.Errorf("%s set: row %q names %s/%s, not a registered algorithm", c.set, r.Label, r.Kind, r.Alg)
			}
			if cmp := r.Comparator(); cmp.Name != r.Label || cmp.Conduit != r.Conduit || cmp.Run == nil {
				t.Errorf("%s set: row %q resolved to %+v", c.set, r.Label, cmp)
			}
		}
		if !slices.Equal(labels, c.labels) {
			t.Errorf("%s set labels = %q, want %q", c.set, labels, c.labels)
		}
	}
}

func TestMeasureBarrier(t *testing.T) {
	for _, r := range BarrierSet {
		cmp := r.Comparator()
		p, err := Measure("16(2)", "sim", cmp, 1, 5)
		if err != nil {
			t.Fatalf("%s: %v", cmp.Name, err)
		}
		if p.Latency <= 0 {
			t.Fatalf("%s: zero latency", cmp.Name)
		}
		if p.IntraMsgs+p.InterMsgs == 0 {
			t.Fatalf("%s: no messages", cmp.Name)
		}
	}
}

func TestMeasureBadSpec(t *testing.T) {
	if _, err := Measure("nope", "sim", BarrierSet[0].Comparator(), 1, 1); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestTDLBBeatsAMBaseline(t *testing.T) {
	tdlb, err := Measure("64(8)", "sim", BarrierSet[0].Comparator(), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	am, err := Measure("64(8)", "sim", BarrierSet[1].Comparator(), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tdlb.Latency*4 >= am.Latency {
		t.Fatalf("TDLB %d ns should beat AM baseline %d ns by >4x at 8 images/node",
			tdlb.Latency, am.Latency)
	}
}

// TestOverlapStrictlyBeatsBlocking is the overlap benchmark's acceptance
// property: for both the hierarchy-aware and the flat allreduce, the
// overlapped (split-phase) episode must be strictly faster than the
// blocking compute-then-reduce episode on a dense placement.
func TestOverlapStrictlyBeatsBlocking(t *testing.T) {
	const flops = 3e4
	for _, alg := range []string{"2level", "rd"} {
		pair := OverlapComparators(alg, flops)
		blocking, err := Measure("16(2)", "sim", pair[0], 128, 5)
		if err != nil {
			t.Fatal(err)
		}
		overlapped, err := Measure("16(2)", "sim", pair[1], 128, 5)
		if err != nil {
			t.Fatal(err)
		}
		if overlapped.Latency >= blocking.Latency {
			t.Fatalf("%s: overlapped %d ns >= blocking %d ns", alg, overlapped.Latency, blocking.Latency)
		}
		t.Logf("%s: blocking %d ns, overlapped %d ns (%.2fx)",
			alg, blocking.Latency, overlapped.Latency,
			float64(blocking.Latency)/float64(overlapped.Latency))
	}
}

func TestOverlapComparatorNames(t *testing.T) {
	pair := OverlapComparators("2level", 1000)
	if len(pair) != 2 || pair[0].Name == pair[1].Name {
		t.Fatalf("malformed overlap pair %+v", pair)
	}
	if !strings.Contains(pair[0].Name, "blocking") || !strings.Contains(pair[1].Name, "overlapped") {
		t.Fatalf("overlap pair names = %q, %q", pair[0].Name, pair[1].Name)
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	pts := []Point{
		{Spec: "16(2)", Comparator: "a", Latency: 10 * sim.Microsecond, IntraMsgs: 3, InterMsgs: 4},
		{Spec: "16(2)", Comparator: "b", Latency: 20 * sim.Microsecond, IntraMsgs: 5, InterMsgs: 6},
	}
	Table(&buf, "Demo", pts, "a")
	out := buf.String()
	for _, want := range []string{"Demo", "16(2)", "2.00x", "10.00 us", "intra/op"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestCSVRendering(t *testing.T) {
	var buf bytes.Buffer
	CSV(&buf, []Point{{Spec: "4(4)", Comparator: "x", Elems: 8, Latency: 123, IntraMsgs: 1, InterMsgs: 2}})
	out := buf.String()
	if !strings.Contains(out, "spec,comparator") || !strings.Contains(out, `4(4),"x",8,123,1,2`) {
		t.Fatalf("csv = %q", out)
	}
}

// TestTwoLevelLeadersStageIsLogDepth pins the slope of the two leaders' stages
// that had a linear form only (a chain for scan, a ring for allgather), at
// ScalePerNode images per node and 8 elements. scan/2level over 32 → 256 nodes
// — three doublings — grows by less than 2× (the chain doubled from 32 to 64
// nodes alone); allgather/2level's output grows with the team, so its time
// must, but a node costs no more at 64 nodes than 1.1× what it costs at 24
// (the ring's per-node cost grew with the node count: 1.41× there).
func TestTwoLevelLeadersStageIsLogDepth(t *testing.T) {
	us := func(k core.Kind, nodes int) float64 {
		p, err := MeasureScale(k, "2level", nodes*ScalePerNode, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		return p.UsPerOp
	}
	var scan []float64
	for _, nodes := range []int{32, 64, 128, 256} {
		scan = append(scan, us(core.KindScan, nodes))
	}
	if scan[3] >= 2*scan[0] {
		t.Errorf("scan/2level modeled us/op over 32, 64, 128, 256 nodes = %.1f: grows %.2fx, want < 2x", scan, scan[3]/scan[0])
	}
	at24, at64 := us(core.KindAllgather, 24)/24, us(core.KindAllgather, 64)/64
	if at64 > 1.1*at24 {
		t.Errorf("allgather/2level modeled us/op per node: %.1f at 24 nodes, %.1f at 64 (%.2fx), want <= 1.1x", at24, at64, at64/at24)
	}
	t.Logf("scan/2level us/op at 32, 64, 128, 256 nodes: %.1f; allgather/2level us/op per node: %.1f at 24 nodes, %.1f at 64", scan, at24, at64)
}

// Package bench is the Teams Microbenchmark harness (the paper's benchmark
// suite (1), §V-A): it measures team collective latencies across image
// counts, placements, comparator stacks and algorithms, and renders the
// paper-style tables. cmd/teamsbench and the repository's experiments_test.go
// drive it.
package bench

import (
	"fmt"
	"io"
	"strings"

	"cafteams/internal/coll"
	"cafteams/internal/core"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// Comparator is one (algorithm, conduit) implementation under test —
// matching the comparison set of the paper's §V-A.
type Comparator struct {
	Name    string
	Conduit machine.Conduit
	// Run performs iters episodes of the collective on the team.
	Run func(v *team.View, buf []float64, iters int)
}

// Row is one line of a paper comparison table: a registry algorithm, the
// conduit it runs over (the zero value is GASNet RDMA) and the label the
// paper's stack goes by.
type Row struct {
	Label   string
	Kind    core.Kind
	Alg     string
	Conduit machine.Conduit
}

// The paper's comparator sets (§V-A) — TDLB/two-level (the contribution), the
// old-runtime AM baselines, GASNet-RDMA and IB-verbs flat dissemination, MPI
// flat and hierarchical, the centralized linear schemes — and the two barrier
// ablations (intra-node x inter-node strategy; socket-aware third level).
var (
	BarrierSet = []Row{
		{Label: "TDLB (2-level)", Kind: core.KindBarrier, Alg: "tdlb"},
		{Label: "UHCAF dissemination (AM)", Kind: core.KindBarrier, Alg: "dissemination", Conduit: machine.ConduitGASNetAM},
		{Label: "GASNet RDMA dissemination", Kind: core.KindBarrier, Alg: "dissemination"},
		{Label: "GASNet IB dissemination", Kind: core.KindBarrier, Alg: "dissemination", Conduit: machine.ConduitGASNetIBV},
		{Label: "MPI dissemination", Kind: core.KindBarrier, Alg: "dissemination", Conduit: machine.ConduitMPI},
		{Label: "MPI hierarchical", Kind: core.KindBarrier, Alg: "tdlb", Conduit: machine.ConduitMPI},
		{Label: "linear (centralized)", Kind: core.KindBarrier, Alg: "linear"},
	}
	ReduceSet = []Row{
		{Label: "two-level reduction", Kind: core.KindAllreduce, Alg: "2level"},
		{Label: "UHCAF linear (AM)", Kind: core.KindAllreduce, Alg: "linear", Conduit: machine.ConduitGASNetAM},
		{Label: "flat recursive doubling", Kind: core.KindAllreduce, Alg: "rd"},
		{Label: "flat binomial tree", Kind: core.KindAllreduce, Alg: "tree"},
		{Label: "ring allreduce", Kind: core.KindAllreduce, Alg: "ring"},
	}
	BcastSet = []Row{
		{Label: "two-level broadcast", Kind: core.KindBroadcast, Alg: "2level"},
		{Label: "UHCAF binomial (AM)", Kind: core.KindBroadcast, Alg: "binomial", Conduit: machine.ConduitGASNetAM},
		{Label: "flat binomial", Kind: core.KindBroadcast, Alg: "binomial"},
		{Label: "scatter-allgather", Kind: core.KindBroadcast, Alg: "scatter-allgather"},
		{Label: "linear (centralized)", Kind: core.KindBroadcast, Alg: "linear"},
	}
	StrategySet = []Row{
		{Label: "TDLB: linear intra + dissemination inter", Kind: core.KindBarrier, Alg: "tdlb"},
		{Label: "TDLL: linear intra + linear inter", Kind: core.KindBarrier, Alg: "tdll"},
		{Label: "flat dissemination (no hierarchy)", Kind: core.KindBarrier, Alg: "dissemination"},
		{Label: "flat linear (no hierarchy)", Kind: core.KindBarrier, Alg: "linear"},
		{Label: "flat tournament (no hierarchy)", Kind: core.KindBarrier, Alg: "tournament"},
		{Label: "flat binomial tree (no hierarchy)", Kind: core.KindBarrier, Alg: "tree"},
	}
	LevelSet = []Row{
		{Label: "2-level (TDLB)", Kind: core.KindBarrier, Alg: "tdlb"},
		{Label: "3-level (TDLB3, socket-aware)", Kind: core.KindBarrier, Alg: "tdlb3"},
		{Label: "flat dissemination", Kind: core.KindBarrier, Alg: "dissemination"},
	}
)

// Comparator resolves the row through the registry: the row's algorithm
// under the row's label, over the row's conduit.
func (r Row) Comparator() Comparator {
	c := RegistryComparator(r.Kind, r.Alg)
	c.Name, c.Conduit = r.Label, r.Conduit
	return c
}

// RegistryComparator builds a comparator that drives one named algorithm
// from core's registry (kind "barrier", "allreduce", "reduceto",
// "bcast", "allgather", "scatter", "gather", "alltoall" or "scan") over the
// GASNet-RDMA conduit. The comparator name is the registry's "kind/name"
// form, so sweep output lines up with the names accepted by
// caf.Config.WithAlgorithm and teamsbench -alg. For the rooted and
// personalized kinds the benchmark vector is the per-image block, so cells
// stay comparable across kinds at one -elems setting. Rooted kinds root at
// team rank 0 and scans are inclusive.
func RegistryComparator(k core.Kind, name string) Comparator {
	return registryComparator(k, name, false)
}

// CellComparator is RegistryComparator measured the way the repository
// benchmark measures its cells (benchmark/cell.go): the root of the rooted
// kinds rotates over the episodes — a node leader, then a leader's neighbour
// on another node, and so on — and odd episodes scan exclusively. Measured at
// root 0 only, near-ties between a linear and a tree algorithm fall the other
// way. name may be core.AlgAuto: the decision table's pick.
func CellComparator(k core.Kind, name string) Comparator {
	return registryComparator(k, name, true)
}

func registryComparator(k core.Kind, name string, rotate bool) Comparator {
	// An explicit tuning entry is dispatched as it stands, so one policy
	// serves registry names and "auto" alike.
	pol := core.Policy{Level: core.LevelAuto, Tuning: core.Tuning{}.With(k, name)}
	return Comparator{
		Name:    k.String() + "/" + name,
		Conduit: machine.ConduitGASNetRDMA,
		Run: func(v *team.View, buf []float64, iters int) {
			n := v.NumImages()
			var wide, wide2 []float64 // one block per image
			switch k {
			case core.KindAllgather:
				wide = make([]float64, n*len(buf))
			case core.KindAlltoall:
				wide, wide2 = make([]float64, n*len(buf)), make([]float64, n*len(buf))
			}
			per := v.T.MaxNodeGroup()
			elemSize := 8
			if k == core.KindBarrier {
				elemSize = 0 // no payload: the decision table sees 0 bytes
			}
			for ep := 0; ep < iters; ep++ {
				root := 0
				if rotate {
					root = ((ep*3+1)%(n/per)*per + ep%per) % n
				}
				// Only a root reads or writes the wide side of a scatter or
				// gather: nobody else holds one.
				if (k == core.KindScatter || k == core.KindGather) && v.Rank == root && wide == nil {
					wide = make([]float64, n*len(buf))
				}
				// Run by name: a Policy passed down by value would sit under
				// every put of the episode (TestStackBudget).
				alg := pol.AlgFor(k, v, len(buf), elemSize)
				switch k {
				case core.KindBarrier:
					core.RunBarrier(alg, v)
				case core.KindAllreduce:
					core.RunAllreduce(alg, v, buf, coll.Sum)
				case core.KindReduceTo:
					core.RunReduceTo(alg, v, root, buf, coll.Sum)
				case core.KindBroadcast:
					core.RunBroadcast(alg, v, root, buf)
				case core.KindAllgather:
					core.RunAllgather(alg, v, buf, wide)
				case core.KindScatter:
					core.RunScatter(alg, v, root, wide, buf)
				case core.KindGather:
					core.RunGather(alg, v, root, buf, wide)
				case core.KindAlltoall:
					core.RunAlltoall(alg, v, wide, wide2)
				case core.KindScan:
					core.RunScan(alg, v, buf, coll.Sum, rotate && ep%2 == 1)
				}
			}
		},
	}
}

// RegistryComparators returns one comparator per algorithm registered for
// kind k, in registry order — the programmatic sweep surface.
func RegistryComparators(k core.Kind) []Comparator {
	var cmps []Comparator
	for _, name := range core.Algorithms(k) {
		cmps = append(cmps, RegistryComparator(k, name))
	}
	return cmps
}

// OverlapComparators returns the two sides of the blocking-vs-overlapped
// comparison for a compute+co_sum episode — the pattern of the CG dot
// product and the heat2d residual check, and the rows of the overlap table.
// Each episode charges flops of independent local work and performs one
// allreduce of the benchmark vector:
//
//	blocking:   compute; allreduce(alg)
//	overlapped: initiate(alg, split-phase); compute; wait
//
// The overlapped side progresses the collective's rounds behind the compute
// (Image.Compute polls the progress engine), so its episode time approaches
// max(compute, collective) instead of their sum. alg is a KindAllreduce
// registry name; the overlapped side runs the same algorithm split-phase (its
// row keeps the "nb-" label).
func OverlapComparators(alg string, flops float64) []Comparator {
	return []Comparator{
		{Name: alg + " blocking (compute; co_sum)", Run: func(v *team.View, buf []float64, iters int) {
			for i := 0; i < iters; i++ {
				v.Img.Compute(flops)
				core.RunAllreduce(alg, v, buf, coll.Sum)
			}
		}},
		{Name: "nb-" + alg + " overlapped (init; compute; wait)", Run: func(v *team.View, buf []float64, iters int) {
			for i := 0; i < iters; i++ {
				h := v.Img.StartOp(func() { core.RunAllreduce(alg, v, buf, coll.Sum) })
				v.Img.Compute(flops)
				h.Wait()
			}
		}},
	}
}

// Point is one measured cell: mean latency per episode (simulated
// nanoseconds on the sim backend, wall-clock nanoseconds on native) and the
// totals of the whole measurement it is the mean of.
type Point struct {
	Spec       string
	Comparator string
	Elems      int
	Latency    pgas.Time
	IntraMsgs  int64
	InterMsgs  int64
	End        pgas.Time // all iters episodes
	Events     int64     // simulator events, 0 on native
	// Key is what the auto decision table sees of the initial team at this
	// payload (Bytes taken as float64 elements).
	Key core.AutoKey
}

// parseSpec resolves a placement: the paper's "images(nodes)" notation, or a
// machine shape "NODESxSOCKETSxCORES" with an image on every core, in blocks —
// the way to put, say, eight images of a node on one socket.
func parseSpec(spec string) (*topology.Topology, error) {
	if !strings.Contains(spec, "x") {
		return topology.ParseSpec(spec)
	}
	nodes, sockets, cores, err := topology.ParseShape(spec)
	if err != nil {
		return nil, err
	}
	return topology.New(nodes, sockets, cores, nodes*sockets*cores, topology.PlaceBlock)
}

// Measure runs iters episodes of one comparator on one placement (see
// parseSpec) and returns the mean episode latency and message counts per
// episode. Backend "sim" (or "") measures simulated time on the modeled
// cluster; "native" runs the same comparator on real goroutines and measures
// wall-clock time, so the same sweep reports both modeled and real
// microseconds. Native latencies carry scheduling noise — treat them as
// ground truth for calibration, not as deterministic values.
func Measure(spec, backend string, cmp Comparator, elems, iters int) (Point, error) {
	topo, err := parseSpec(spec)
	if err != nil {
		return Point{}, err
	}
	model := machine.PaperCluster().WithConduit(cmp.Conduit)
	stats := trace.New()
	env := sim.NewEnv()
	var w *pgas.World
	switch backend {
	case "", "sim":
		w, err = pgas.NewWorld(env, model, topo, stats)
		if err != nil {
			return Point{}, err
		}
	case "native":
		w = pgas.NewNativeWorld(model, topo, stats)
	default:
		return Point{}, fmt.Errorf("bench: unknown backend %q (want \"sim\" or \"native\")", backend)
	}
	var key core.AutoKey
	end := w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		if v.Rank == 0 {
			key = core.AutoKeyOf(v, 8*elems)
		}
		buf := make([]float64, elems)
		cmp.Run(v, buf, iters)
	})
	sn := stats.Snapshot()
	return Point{
		Spec:       spec,
		Comparator: cmp.Name,
		Elems:      elems,
		Latency:    end / pgas.Time(iters),
		IntraMsgs:  sn.IntraMsgs / int64(iters),
		InterMsgs:  sn.InterMsgs / int64(iters),
		End:        end,
		Events:     env.Events(),
		Key:        key,
	}, nil
}

// Table renders measurement points grouped by placement spec as an aligned
// text table with a ratio column relative to the named reference
// comparator.
func Table(w io.Writer, title string, points []Point, reference string) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	bySpec := map[string][]Point{}
	var specs []string
	for _, p := range points {
		if _, ok := bySpec[p.Spec]; !ok {
			specs = append(specs, p.Spec)
		}
		bySpec[p.Spec] = append(bySpec[p.Spec], p)
	}
	for _, spec := range specs {
		pts := bySpec[spec]
		var ref pgas.Time
		for _, p := range pts {
			if p.Comparator == reference {
				ref = p.Latency
			}
		}
		fmt.Fprintf(w, "\nimages(nodes) = %s\n", spec)
		fmt.Fprintf(w, "  %-28s %14s %10s %10s %10s\n", "implementation", "latency/op", "vs ref", "intra/op", "inter/op")
		for _, p := range pts {
			ratio := "-"
			if ref > 0 && p.Latency > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(p.Latency)/float64(ref))
			}
			fmt.Fprintf(w, "  %-28s %11.2f us %10s %10d %10d\n",
				p.Comparator, float64(p.Latency)/1000, ratio, p.IntraMsgs, p.InterMsgs)
		}
	}
}

// CSV renders points as comma-separated values.
func CSV(w io.Writer, points []Point) {
	fmt.Fprintln(w, "spec,comparator,elems,latency_ns,intra_msgs,inter_msgs")
	for _, p := range points {
		fmt.Fprintf(w, "%s,%q,%d,%d,%d,%d\n", p.Spec, p.Comparator, p.Elems, p.Latency, p.IntraMsgs, p.InterMsgs)
	}
}

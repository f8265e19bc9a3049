// Package bench is the Teams Microbenchmark harness (the paper's benchmark
// suite (1), §V-A): it measures team collective latencies across image
// counts, placements, comparator stacks and algorithms, and renders the
// paper-style tables. cmd/teamsbench and the repository's bench_test.go
// drive it.
package bench

import (
	"fmt"
	"io"
	"sort"
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

// Collective names a benchmarked operation.
type Collective int

// Benchmarked collectives.
const (
	Barrier Collective = iota
	Reduce
	Bcast
	ReduceTo
	Allgather
)

func (c Collective) String() string {
	switch c {
	case Barrier:
		return "barrier"
	case Reduce:
		return "reduction"
	case Bcast:
		return "broadcast"
	case ReduceTo:
		return "reduce-to"
	case Allgather:
		return "allgather"
	default:
		return fmt.Sprintf("collective(%d)", int(c))
	}
}

// Comparator is one (algorithm, conduit) implementation under test —
// matching the comparison set of the paper's §V-A.
type Comparator struct {
	Name    string
	Conduit machine.Conduit
	// Run performs iters episodes of the collective on the team.
	Run func(v *team.View, buf []float64, iters int)
}

// Comparators returns the paper's comparator set for the given collective:
// TDLB/two-level (the contribution), the old-runtime AM dissemination
// baseline, GASNet-RDMA and IB-verbs flat dissemination, MPI flat and
// hierarchical, and the centralized linear scheme.
func Comparators(c Collective) []Comparator {
	flatBarrier := func(v *team.View, _ []float64, iters int) {
		for i := 0; i < iters; i++ {
			coll.BarrierDissemination(v, pgas.ViaConduit)
		}
	}
	switch c {
	case Barrier:
		return []Comparator{
			{Name: "TDLB (2-level)", Conduit: machine.ConduitGASNetRDMA, Run: func(v *team.View, _ []float64, iters int) {
				for i := 0; i < iters; i++ {
					core.BarrierTDLB(v)
				}
			}},
			{Name: "UHCAF dissemination (AM)", Conduit: machine.ConduitGASNetAM, Run: flatBarrier},
			{Name: "GASNet RDMA dissemination", Conduit: machine.ConduitGASNetRDMA, Run: flatBarrier},
			{Name: "GASNet IB dissemination", Conduit: machine.ConduitGASNetIBV, Run: flatBarrier},
			{Name: "MPI dissemination", Conduit: machine.ConduitMPI, Run: flatBarrier},
			{Name: "MPI hierarchical", Conduit: machine.ConduitMPI, Run: func(v *team.View, _ []float64, iters int) {
				for i := 0; i < iters; i++ {
					core.BarrierTDLB(v)
				}
			}},
			{Name: "linear (centralized)", Conduit: machine.ConduitGASNetRDMA, Run: func(v *team.View, _ []float64, iters int) {
				for i := 0; i < iters; i++ {
					coll.BarrierLinear(v, pgas.ViaConduit)
				}
			}},
		}
	case Reduce:
		return []Comparator{
			{Name: "two-level reduction", Conduit: machine.ConduitGASNetRDMA, Run: func(v *team.View, buf []float64, iters int) {
				for i := 0; i < iters; i++ {
					core.AllreduceTwoLevel(v, buf, coll.Sum)
				}
			}},
			{Name: "UHCAF linear (AM)", Conduit: machine.ConduitGASNetAM, Run: func(v *team.View, buf []float64, iters int) {
				for i := 0; i < iters; i++ {
					coll.AllreduceLinear(v, buf, coll.Sum, pgas.ViaConduit)
				}
			}},
			{Name: "flat recursive doubling", Conduit: machine.ConduitGASNetRDMA, Run: func(v *team.View, buf []float64, iters int) {
				for i := 0; i < iters; i++ {
					coll.AllreduceRD(v, buf, coll.Sum, pgas.ViaConduit)
				}
			}},
			{Name: "flat binomial tree", Conduit: machine.ConduitGASNetRDMA, Run: func(v *team.View, buf []float64, iters int) {
				for i := 0; i < iters; i++ {
					coll.AllreduceTree(v, buf, coll.Sum, pgas.ViaConduit)
				}
			}},
			{Name: "ring allreduce", Conduit: machine.ConduitGASNetRDMA, Run: func(v *team.View, buf []float64, iters int) {
				for i := 0; i < iters; i++ {
					coll.AllreduceRing(v, buf, coll.Sum, pgas.ViaConduit)
				}
			}},
		}
	case Bcast:
		return []Comparator{
			{Name: "two-level broadcast", Conduit: machine.ConduitGASNetRDMA, Run: func(v *team.View, buf []float64, iters int) {
				for i := 0; i < iters; i++ {
					core.BcastTwoLevel(v, 0, buf)
				}
			}},
			{Name: "UHCAF binomial (AM)", Conduit: machine.ConduitGASNetAM, Run: func(v *team.View, buf []float64, iters int) {
				for i := 0; i < iters; i++ {
					coll.BcastBinomial(v, 0, buf, pgas.ViaConduit)
				}
			}},
			{Name: "flat binomial", Conduit: machine.ConduitGASNetRDMA, Run: func(v *team.View, buf []float64, iters int) {
				for i := 0; i < iters; i++ {
					coll.BcastBinomial(v, 0, buf, pgas.ViaConduit)
				}
			}},
			{Name: "scatter-allgather", Conduit: machine.ConduitGASNetRDMA, Run: func(v *team.View, buf []float64, iters int) {
				for i := 0; i < iters; i++ {
					coll.BcastScatterAllgather(v, 0, buf, pgas.ViaConduit)
				}
			}},
			{Name: "linear (centralized)", Conduit: machine.ConduitGASNetRDMA, Run: func(v *team.View, buf []float64, iters int) {
				for i := 0; i < iters; i++ {
					coll.BcastLinear(v, 0, buf, pgas.ViaConduit)
				}
			}},
		}
	}
	return nil
}

// RegistryComparator builds a comparator that drives one named algorithm
// from core's pluggable registry (kind "barrier", "allreduce", "reduceto",
// "bcast", "allgather", "scatter", "gather", "alltoall" or "scan") over the
// GASNet-RDMA conduit. The comparator name is the registry's "kind/name"
// form, so sweep output lines up with the names accepted by
// caf.Config.WithAlgorithm and teamsbench -alg. For the rooted and
// personalized kinds the benchmark vector is the per-image block, so cells
// stay comparable across kinds at one -elems setting.
func RegistryComparator(k core.Kind, name string) Comparator {
	return Comparator{
		Name:    k.String() + "/" + name,
		Conduit: machine.ConduitGASNetRDMA,
		Run: func(v *team.View, buf []float64, iters int) {
			var wide, wide2 []float64
			switch k {
			case core.KindAllgather, core.KindScatter, core.KindGather:
				wide = make([]float64, v.NumImages()*len(buf))
			case core.KindAlltoall:
				wide = make([]float64, v.NumImages()*len(buf))
				wide2 = make([]float64, v.NumImages()*len(buf))
			}
			for i := 0; i < iters; i++ {
				switch k {
				case core.KindBarrier:
					core.RunBarrier(name, v)
				case core.KindAllreduce:
					core.RunAllreduce(name, v, buf, coll.Sum)
				case core.KindReduceTo:
					core.RunReduceTo(name, v, 0, buf, coll.Sum)
				case core.KindBroadcast:
					core.RunBroadcast(name, v, 0, buf)
				case core.KindAllgather:
					core.RunAllgather(name, v, buf, wide)
				case core.KindScatter:
					core.RunScatter(name, v, 0, wide, buf)
				case core.KindGather:
					core.RunGather(name, v, 0, buf, wide)
				case core.KindAlltoall:
					core.RunAlltoall(name, v, wide, wide2)
				case core.KindScan:
					core.RunScan(name, v, buf, coll.Sum, false)
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

// OverlapComparator builds one side of the blocking-vs-overlapped
// comparison for a compute+co_sum episode — the pattern of the CG dot
// product and the heat2d residual check. Each episode charges flops of
// independent local work and performs one allreduce of the benchmark
// vector:
//
//	blocking:   compute; allreduce(alg)
//	overlapped: initiate(async counterpart of alg); compute; wait
//
// The overlapped side progresses the collective's rounds behind the compute
// (Image.Compute polls the progress engine), so its episode time approaches
// max(compute, collective) instead of their sum. alg is a KindAllreduce
// registry name; the overlapped side runs the same algorithm split-phase,
// through the policy's async entry point (its row keeps the "nb-" label).
func OverlapComparator(alg string, flops float64, overlapped bool) Comparator {
	name := fmt.Sprintf("%s blocking (compute; co_sum)", alg)
	if overlapped {
		pol := core.Policy{Tuning: core.Tuning{Allreduce: alg}}
		return Comparator{
			Name:    fmt.Sprintf("nb-%s overlapped (init; compute; wait)", alg),
			Conduit: machine.ConduitGASNetRDMA,
			Run: func(v *team.View, buf []float64, iters int) {
				for i := 0; i < iters; i++ {
					h := core.PolicyAllreduceAsync(pol, v, buf, coll.Sum)
					v.Img.Compute(flops)
					h.Wait()
				}
			},
		}
	}
	return Comparator{
		Name:    name,
		Conduit: machine.ConduitGASNetRDMA,
		Run: func(v *team.View, buf []float64, iters int) {
			for i := 0; i < iters; i++ {
				v.Img.Compute(flops)
				core.RunAllreduce(alg, v, buf, coll.Sum)
			}
		},
	}
}

// OverlapComparators returns the blocking/overlapped pair for one blocking
// allreduce algorithm — the rows of the overlap table.
func OverlapComparators(alg string, flops float64) []Comparator {
	return []Comparator{
		OverlapComparator(alg, flops, false),
		OverlapComparator(alg, flops, true),
	}
}

// Point is one measured cell: mean latency per episode (simulated
// nanoseconds on the sim backend, wall-clock nanoseconds on native).
type Point struct {
	Spec       string
	Comparator string
	Elems      int
	Latency    pgas.Time
	IntraMsgs  int64
	InterMsgs  int64
}

// Measure runs one comparator on one placement on the sim backend and
// returns the mean episode latency and message counts per episode.
func Measure(spec string, cmp Comparator, elems, iters int) (Point, error) {
	return MeasureBackend(spec, "sim", cmp, elems, iters)
}

// MeasureBackend is Measure on a chosen execution substrate: "sim" (or "")
// measures simulated time on the modeled cluster; "native" runs the same
// comparator on real goroutines and measures wall-clock time, so the same
// sweep reports both modeled and real microseconds. Native latencies carry
// scheduling noise — treat them as ground truth for calibration, not as
// deterministic values.
func MeasureBackend(spec, backend string, cmp Comparator, elems, iters int) (Point, error) {
	topo, err := topology.ParseSpec(spec)
	if err != nil {
		return Point{}, err
	}
	model := machine.PaperCluster().WithConduit(cmp.Conduit)
	stats := trace.New()
	var w *pgas.World
	switch backend {
	case "", "sim":
		w, err = pgas.NewWorld(sim.NewEnv(), model, topo, stats)
		if err != nil {
			return Point{}, err
		}
	case "native":
		w = pgas.NewNativeWorld(model, topo, stats)
	default:
		return Point{}, fmt.Errorf("bench: unknown backend %q (want \"sim\" or \"native\")", backend)
	}
	end := w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
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
	sort.SliceStable(specs, func(i, j int) bool { return false }) // preserve insertion order
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

package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one metric. BENCHMARK.json lists exactly these, in this
// order; bench_test.go holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// Units name their clock: "s", "ms", "ns" are host time; "sim_us", "sim_ms"
// are simulated (modeled) time; "x" is a ratio; "frac" a share in [0, 1].
//
// An end-to-end metric that is not defined on a workload reads the neutral
// value 1 there (the driver wants every metric from every workload and none
// ever 0); a per-layer metric that does not apply reads 0.
const notApplicable = 1.0

// README.md says which workloads define each metric and why each bound is
// what it is.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.24},
	{"verified_frac", "frac", "higher", 0.001},
	{"modeled_us_geomean", "sim_us", "lower", 0.005},
	{"hier_speedup", "x", "higher", 0.005},
	{"auto_regret", "x", "lower", 0.005},
	{"overlap_speedup", "x", "higher", 0.005},
	{"sched_makespan_ms", "sim_ms", "lower", 0.25},
	{"contention_penalty", "x", "lower", 0.15},
	{"goodput_frac", "frac", "higher", 0.01},
}

// The algorithm pairs whose modeled time at 64(8)/128 elems is reported by
// name (core.modeled_us.<kind>.<alg>).
var namedAlgs = []string{
	"barrier.dissemination", "barrier.tdlb",
	"allreduce.rd", "allreduce.2level", "allreduce.nb-2level",
	"bcast.binomial", "bcast.2level",
	"reduceto.binomial", "reduceto.2level",
	"allgather.ring", "allgather.2level",
	"scatter.binomial", "scatter.2level",
	"gather.binomial", "gather.2level",
	"alltoall.pairwise", "alltoall.2level",
	"scan.rd", "scan.2level",
}

var scaleAlgs = []string{
	"barrier.dissemination", "barrier.tdlb",
	"allreduce.rd", "allreduce.2level",
	"reduceto.binomial", "reduceto.2level",
}

var kindNames = []string{"barrier", "allreduce", "reduceto", "bcast", "allgather",
	"scatter", "gather", "alltoall", "scan"}

var (
	policyNames  = []string{"packed", "spread", "kchoices", "quota"}
	penaltyKinds = []string{"allreduce", "alltoall", "barrier", "broadcast", "scan"}
	cpuLayers    = []string{"sim", "pgas", "coll", "core", "team", "caf", "cluster", "hpl",
		"bench", "go_sched", "go_gc", "go_mem"}
)

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{name: name, unit: unit, better: better})
	}
	// sim kernel.
	add("sim.events", "count", "lower")
	add("sim.ns_per_event", "ns", "lower")
	add("sim.ns_per_event.churn", "ns", "lower")
	add("sim.ns_per_event.cond-pingpong", "ns", "lower")
	add("sim.allocs_per_event.churn", "count", "lower")
	// pgas transport, both backends.
	add("pgas.sim.ns_per_event.pingpong", "ns", "lower")
	add("pgas.sim.ns_per_event.fanout", "ns", "lower")
	add("pgas.sim.put_modeled_us.8k.intra", "sim_us", "lower")
	add("pgas.sim.put_modeled_us.8k.inter", "sim_us", "lower")
	add("pgas.sim.notify_modeled_us.intra", "sim_us", "lower")
	add("pgas.sim.notify_modeled_us.inter", "sim_us", "lower")
	add("pgas.native.pingpong_ns", "ns", "lower")
	add("pgas.native.fanout_ns", "ns", "lower")
	add("pgas.native.put_ns.8k", "ns", "lower")
	add("pgas.msgs_intra_per_op", "count", "lower")
	add("pgas.msgs_inter_per_op", "count", "lower")
	add("pgas.bytes_inter_per_op", "B", "lower")
	add("pgas.world_setup_ms.64", "ms", "lower")
	add("pgas.world_setup_ms.4096", "ms", "lower")
	add("pgas.heap_bytes_per_image.4096.barrier", "B", "lower")
	add("pgas.heap_bytes_per_image.4096.reduceto", "B", "lower")
	// machine model seen through the cluster's per-node resources.
	for _, r := range []string{"nic", "progress", "membus"} {
		add("hw."+r+"_busy_frac.rd", "frac", "lower")
		add("hw."+r+"_busy_frac.2level", "frac", "lower")
	}
	add("hw.nic_busy_frac", "frac", "lower")
	// team / topology.
	add("topology.build_ms.4096", "ms", "lower")
	add("team.initial_ms.4096", "ms", "lower")
	add("team.form_modeled_us.64x8", "sim_us", "lower")
	// coll + core.
	for _, a := range namedAlgs {
		add("core.modeled_us."+a, "sim_us", "lower")
	}
	add("core.cells", "count", "higher")
	add("core.cells_drifted", "count", "lower")
	add("core.nb_twin_max_delta_ns", "sim_ns", "lower")
	add("core.auto_cells_suboptimal", "count", "lower")
	add("core.auto_worst_regret", "x", "lower")
	add("core.paper.e2_barrier_ratio", "x", "higher")
	add("core.paper.e3_reduce_ratio", "x", "higher")
	add("core.paper.e4_bcast_ratio", "x", "higher")
	for _, a := range scaleAlgs {
		add("core.scale_us."+a+".4096", "sim_us", "lower")
	}
	for _, k := range kindNames {
		add("core.native_us."+k, "us", "lower")
	}
	// caf applications.
	for _, app := range []string{"heat2d", "cg"} {
		add("caf.modeled_ms."+app+".blocking", "sim_ms", "lower")
		add("caf.modeled_ms."+app+".overlapped", "sim_ms", "lower")
	}
	for _, a := range []string{"pairwise", "bruck", "2level"} {
		add("caf.modeled_us.transpose."+a, "sim_us", "lower")
	}
	for _, ph := range []string{"compute", "put", "sync", "collective", "wait"} {
		add("caf.modeled_share."+ph, "frac", "lower")
	}
	add("hpl.gflops.2level", "GFLOP/s", "higher")
	add("hpl.gflops.1level", "GFLOP/s", "higher")
	add("hpl.host_s", "s", "lower")
	// cluster scheduler.
	for _, p := range policyNames {
		add("cluster.makespan_ms."+p, "sim_ms", "lower")
	}
	for _, p := range policyNames {
		add("cluster.avg_wait_us."+p, "sim_us", "lower")
	}
	for _, k := range penaltyKinds {
		add("cluster.penalty."+k, "x", "lower")
	}
	add("cluster.kchoices_found_idle", "count", "higher")
	add("cluster.kchoices_used_sampling", "count", "lower")
	add("cluster.retries", "count", "lower")
	add("cluster.wasted_core_ms", "sim_ms", "lower")
	add("cluster.place_ns_per_job", "ns", "lower")
	// Go runtime and the driver itself.
	add("go.allocs_per_op", "count", "lower")
	add("go.alloc_bytes_per_op", "B", "lower")
	add("go.gc_cpu_frac", "frac", "lower")
	add("go.sys_cpu_frac", "frac", "lower")
	add("driver.rep_ms_p50", "ms", "lower")
	add("driver.rep_ms_tail", "ms", "lower")
	add("driver.rep_n", "count", "higher")
	add("driver.trace_overhead_pct", "%", "lower")
	// Where the host CPU went, from the traced pass's profile.
	for _, l := range cpuLayers {
		add("cpu_share."+l, "frac", "lower")
	}
	return out
}

// metricSet is what one run reports: name → value.
type metricSet map[string]float64

// complete returns m restricted to defs, with absent metrics reading fill.
func (m metricSet) complete(defs []metricDef, fill float64) metricSet {
	out := metricSet{}
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			out[d.name] = v
		} else {
			out[d.name] = fill
		}
	}
	return out
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// geomean of strictly positive values; 0 for an empty list.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest order statistic with at least ten samples beyond
// it, or the maximum when there are fewer than twenty samples; n tells the
// reader which.
func tail(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 20 {
		return s[len(s)-11]
	}
	return s[len(s)-1]
}

// printMetrics writes name, value and unit, one per line, in defs order.
func printMetrics(b *strings.Builder, title string, defs []metricDef, m metricSet) {
	fmt.Fprintf(b, "%s\n", title)
	for _, d := range defs {
		fmt.Fprintf(b, "  %-44s %16.6g %s\n", d.name, m[d.name], d.unit)
	}
}

package bench

// Extreme-scale studies: how the modeled collective latencies scale as the
// image count grows far past the paper's 352-image cluster (4k, 16k, 64k
// images on multi-level topologies). Everything reported here is simulated
// time and event counts — pure functions of the workload — so scale tables
// are byte-deterministic and diffable across runs and machines; only the
// wall-clock cost of *producing* them varies, which is what the repository
// benchmark's scale-4k workload tracks.

import (
	"fmt"
	"io"
	"math"
	"strings"

	"cafteams/internal/core"
)

// ScalePerNode is the fixed images-per-node of the scale topologies: every
// node models 2 sockets x 4 cores, so the two-level and three-level
// hierarchy-aware algorithms both have real structure to exploit.
const ScalePerNode = 8

// ScaleKindAlgs lists the collective kinds and algorithms the scale study
// sweeps: only algorithms whose network stage is logarithmic in depth (the
// hierarchy-aware ones add their linear shared-memory phases, as long as a node
// is wide; TestTwoLevelLeadersStageIsLogDepth holds scan/2level to it) — the
// O(N) linear/ring baselines would dominate runtime at 64k images without
// saying anything new (their slopes are already visible at paper scale).
var ScaleKindAlgs = []struct {
	Kind core.Kind
	Algs []string
}{
	{core.KindBarrier, []string{"dissemination", "tdlb", "tdlb3"}},
	{core.KindAllreduce, []string{"rd", "2level"}},
	{core.KindReduceTo, []string{"binomial", "2level"}},
	{core.KindBroadcast, []string{"binomial", "2level"}},
	{core.KindScan, []string{"rd", "2level"}},
}

// ScalePoint is one scale-study cell. All fields are deterministic.
type ScalePoint struct {
	Alg     string
	Images  int
	Nodes   int
	UsPerOp float64 // modeled microseconds per episode
	Events  int64   // simulator events for the whole measurement
}

// MeasureScale runs iters episodes of one registry algorithm on images images
// placed ScalePerNode per dual-socket node, in blocks, and reports the modeled
// per-episode latency.
func MeasureScale(k core.Kind, alg string, images, elems, iters int) (ScalePoint, error) {
	if images%ScalePerNode != 0 {
		return ScalePoint{}, fmt.Errorf("bench: scale image count %d not a multiple of %d per node", images, ScalePerNode)
	}
	nodes := images / ScalePerNode
	if k == core.KindBarrier {
		elems = 1
	}
	p, err := Measure(fmt.Sprintf("%d(%d)", images, nodes), "sim", RegistryComparator(k, alg), elems, iters)
	if err != nil {
		return ScalePoint{}, err
	}
	return ScalePoint{
		Alg:     alg,
		Images:  images,
		Nodes:   nodes,
		UsPerOp: float64(p.End) / float64(iters) / 1000,
		Events:  p.Events,
	}, nil
}

// ScaleTable renders one kind's scale points as a log-log table: alongside
// the raw modeled latency it prints log2(images) and log2(us/op), so the
// scaling exponent is readable as a slope (a dissemination-style algorithm
// adds ~constant us per doubling; a linear phase doubles with N).
func ScaleTable(w io.Writer, kind string, pts []ScalePoint) {
	title := fmt.Sprintf("scale study: %s (%d images/node, multi-level, block placement, modeled time)", kind, ScalePerNode)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "  %-16s %8s %7s %12s %9s %10s %12s\n",
		"alg", "images", "nodes", "us/op", "log2(N)", "log2(us)", "events")
	last := ""
	for _, p := range pts {
		if last != "" && p.Alg != last {
			fmt.Fprintln(w)
		}
		last = p.Alg
		fmt.Fprintf(w, "  %-16s %8d %7d %12.2f %9.2f %10.2f %12d\n",
			p.Alg, p.Images, p.Nodes, p.UsPerOp, math.Log2(float64(p.Images)), math.Log2(p.UsPerOp), p.Events)
	}
}

// Package caf is the public API of the library: a Coarray-Fortran-style
// programming model for Go on a simulated cluster, with Fortran 2015 teams
// and the paper's memory-hierarchy-aware collective runtime.
//
// A program is an SPMD body executed by every image (1-based, as in
// Fortran). Images synchronize with SyncAll/SyncImages, communicate through
// coarrays (one-sided Put/Get), form teams (FormTeam/ChangeTeam), and use
// the collective intrinsics CoSum/CoMax/CoMin/CoBroadcast plus the
// rooted, personalized and prefix collectives CoScatter/CoGather/
// CoAlltoall/CoScan (see CoSumT and friends for element types other than
// float64). All collective operations
// dispatch through a named-algorithm registry: by default the hierarchy
// level picks — the paper's two-level methodology wherever placement is
// dense, the flat one-level baseline otherwise, or the three-level
// (socket-aware) extension — and Config.Tuning / Config.WithAlgorithm pin
// any collective kind to any registered algorithm (see Algorithms) or to
// "auto", the runtime's measured decision table.
//
// Quick start:
//
//	rep, err := caf.Run(caf.Config{Spec: "16(2)"}, func(im *caf.Image) {
//	    x := []float64{float64(im.ThisImage())}
//	    im.CoSum(x)
//	    if im.ThisImage() == 1 {
//	        fmt.Println("sum over images:", x[0])
//	    }
//	})
package caf

import (
	"fmt"
	"os"

	"cafteams/internal/core"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// Hierarchy selects how the collective runtime exploits the memory
// hierarchy.
type Hierarchy = core.Level

// Hierarchy levels.
const (
	// OneLevel is the flat, placement-oblivious baseline runtime.
	OneLevel = core.LevelFlat
	// TwoLevel is the paper's node-aware methodology (TDLB et al.).
	TwoLevel = core.LevelTwo
	// ThreeLevel adds socket awareness (the paper's future-work
	// extension).
	ThreeLevel = core.LevelThree
	// Auto picks two-level when any node hosts more than one image of
	// the team, flat otherwise.
	Auto = core.LevelAuto
)

// Config describes the simulated machine and runtime for a Run.
type Config struct {
	// Spec places images with the paper's "images(nodes)" notation, e.g.
	// "64(8)". Takes precedence over Images.
	Spec string
	// Images places this many images on a single shared-memory node when
	// Spec is empty. The node is modeled with the paper cluster's two
	// sockets (images split evenly across them); the socket boundary only
	// matters to the ThreeLevel runtime — every image still shares one
	// node's memory.
	Images int
	// Model overrides the machine model (default: the paper's 44-node
	// InfiniBand cluster).
	Model *machine.Model
	// Conduit selects the communication software stack being modeled.
	Conduit machine.Conduit
	// Hierarchy selects the collective runtime level (default Auto).
	Hierarchy Hierarchy
	// Tuning selects, per collective kind, the algorithm the runtime
	// dispatches to, by registry name (see Algorithms). Zero value: the
	// hierarchy level decides, the paper's methodology. Entries may also
	// be AlgAuto: the call's algorithm is then read from a decision table
	// measured over placements and payload sizes (Report.Stats.AutoPicks
	// counts what it chose). Unknown names make Run fail with an error.
	// See also WithAlgorithm.
	Tuning Tuning
	// Detect configures timer-based failure detection: per-wait timeouts
	// and per-image heartbeats. The zero value disables all timers —
	// failure *announcements* (injected kills, panics) are always
	// observed, but a silent death surfaces only through these timers.
	Detect DetectConfig
	// FaultPlan injects a seeded, deterministic fault schedule (image and
	// node kills on both backends; NIC degradation and link delay/drop on
	// the sim backend). Nil runs fault-free.
	FaultPlan *FaultPlan
	// Backend selects the execution substrate: BackendSim (default) runs
	// images as simulated processes with modeled time on the modeled
	// cluster; BackendNative runs them as real goroutines in this process
	// with wall-clock time (Spec still shapes the logical node hierarchy
	// the collectives exploit). An empty Backend falls back to the
	// CAF_BACKEND environment variable, so existing programs run
	// unmodified under either backend. Unknown values make Run fail.
	Backend string
}

// Backend names accepted by Config.Backend and the CAF_BACKEND environment
// variable.
const (
	BackendSim    = "sim"
	BackendNative = "native"
)

// resolveBackend applies the CAF_BACKEND fallback and validates the name.
func (c Config) resolveBackend() (string, error) {
	b := c.Backend
	if b == "" {
		b = os.Getenv("CAF_BACKEND")
	}
	switch b {
	case "", BackendSim:
		return BackendSim, nil
	case BackendNative:
		return BackendNative, nil
	default:
		return "", fmt.Errorf("caf: unknown backend %q (want %q or %q)", b, BackendSim, BackendNative)
	}
}

// WithAlgorithm returns a copy of the Config that dispatches collective
// kind k to the named algorithm, e.g.
//
//	cfg := caf.Config{Spec: "64(8)"}.WithAlgorithm(caf.KindAllreduce, "ring")
func (c Config) WithAlgorithm(k Kind, name string) Config {
	c.Tuning = c.Tuning.With(k, name)
	return c
}

// Report summarizes a completed run.
type Report struct {
	// Elapsed is the end-to-end time of the whole run in nanoseconds:
	// simulated time on the sim backend, wall-clock time on the native
	// backend.
	Elapsed pgas.Time
	// Stats holds communication counters.
	Stats trace.Snapshot
	// Images is the number of images that ran.
	Images int
	// Backend names the execution substrate the run used.
	Backend string
	// Failures records every image that failed during the run (killed by
	// an injected fault, panicked — with the panic value — or aborted on a
	// failed peer), in announcement order. Empty for a clean run.
	Failures []ImageFailure
}

// Image is one executing image's handle. All methods must be called from
// the image's own body function.
type Image struct {
	img   *pgas.Image
	w     *pgas.World
	pol   core.Policy
	stack []*team.View // current team on top
}

// Run launches an SPMD program: body executes once per image, concurrently
// in simulated time. Run returns when every image has finished. It returns
// an error for configuration problems and panics (like a crashed job) if
// the program deadlocks.
//
// The zero value of Config.Hierarchy runs the Auto policy (the paper's
// two-level methodology wherever a node hosts more than one image); use
// RunFlat for the one-level baseline.
func Run(cfg Config, body func(im *Image)) (Report, error) {
	return runWithLevel(cfg, cfg.level(), body)
}

// level is the hierarchy level of Run and LaunchOn: the zero value means Auto.
func (c Config) level() core.Level {
	if c.Hierarchy == core.LevelFlat {
		return core.LevelAuto
	}
	return c.Hierarchy
}

// newWorld is the world set-up Run and LaunchOn share: the tuning is checked,
// build makes the world on the backend or cluster of the caller's choice, and
// the world is armed — image panics are always contained (a panic in one
// image's body fails that image, recorded in Report.Failures, instead of
// crashing the run), detection timers and the fault plan installed. The
// returned function makes an image's handle, on its initial team.
func (c Config) newWorld(level core.Level, build func(*trace.Stats) (*pgas.World, error)) (*pgas.World, func(*pgas.Image) *Image, error) {
	if err := c.Tuning.Validate(); err != nil {
		return nil, nil, fmt.Errorf("caf: %w", err)
	}
	w, err := build(trace.New())
	if err != nil {
		return nil, nil, err
	}
	w.ContainPanics()
	w.SetDetect(c.Detect)
	if c.FaultPlan != nil {
		if err := w.InjectFaults(c.FaultPlan); err != nil {
			return nil, nil, err
		}
	}
	pol := core.Policy{Level: level, Tuning: c.Tuning}
	return w, func(pim *pgas.Image) *Image {
		return &Image{img: pim, w: w, pol: pol, stack: []*team.View{team.Initial(w, pim)}}
	}, nil
}

// RunFlat is Run with the one-level (hierarchy-oblivious) runtime — the
// paper's baseline. Provided separately because the zero Config defaults to
// the hierarchy-aware runtime.
func RunFlat(cfg Config, body func(im *Image)) (Report, error) {
	return runWithLevel(cfg, core.LevelFlat, body)
}

func runWithLevel(cfg Config, level core.Level, body func(im *Image)) (Report, error) {
	var topo *topology.Topology
	var err error
	switch {
	case cfg.Spec != "":
		topo, err = topology.ParseSpec(cfg.Spec)
	case cfg.Images > 0:
		topo, err = topology.New(1, 2, (cfg.Images+1)/2, cfg.Images, topology.PlaceBlock)
	default:
		err = fmt.Errorf("caf: config needs Spec or Images")
	}
	if err != nil {
		return Report{}, err
	}
	model := cfg.Model
	if model == nil {
		model = machine.PaperCluster()
	}
	model = model.WithConduit(cfg.Conduit)
	backend, err := cfg.resolveBackend()
	if err != nil {
		return Report{}, err
	}
	w, newImage, err := cfg.newWorld(level, func(stats *trace.Stats) (*pgas.World, error) {
		if backend == BackendNative {
			return pgas.NewNativeWorld(model, topo, stats), nil
		}
		// Backend construction stays behind the pgas seam: caf does not
		// import internal/sim (enforced by internal/lint's layers analyzer).
		return pgas.NewSimWorld(model, topo, stats)
	})
	if err != nil {
		return Report{}, err
	}
	end := w.Run(func(pim *pgas.Image) { body(newImage(pim)) })
	rep := Report{Elapsed: end, Stats: w.Stats().Snapshot(), Images: w.NumImages(),
		Backend: backend, Failures: w.Failures()}
	if len(rep.Failures) > 0 {
		return rep, &FailedRunError{Failures: rep.Failures}
	}
	return rep, nil
}

// view returns the current team view (innermost change-team block).
func (im *Image) view() *team.View { return im.stack[len(im.stack)-1] }

// teamRank turns a 1-based image index of v's team into the runtime's team
// rank and refuses one outside the team by name. Entry points call it before
// anything is sent: every image fails alike and Run reports it, where a root
// nobody is would leave the whole team waiting.
func teamRank(v *team.View, op, what string, image int) int {
	if n := v.NumImages(); image < 1 || image > n {
		panic(fmt.Sprintf("caf: %s: %s image %d outside 1..%d", op, what, image, n))
	}
	return image - 1
}

// ThisImage returns this image's index in the current team, 1-based as in
// Fortran.
func (im *Image) ThisImage() int { return im.view().Rank + 1 }

// NumImages returns the current team's size.
func (im *Image) NumImages() int { return im.view().NumImages() }

// GlobalImage returns this image's index in the initial team, 1-based.
func (im *Image) GlobalImage() int { return im.img.Rank() + 1 }

// Node returns the physical node hosting this image (for inspection).
func (im *Image) Node() int { return im.img.Node() }

// Now returns the current time in nanoseconds (simulated, or wall-clock
// since launch on the native backend).
func (im *Image) Now() pgas.Time { return im.img.Now() }

// Compute charges flops floating-point operations of local compute time.
func (im *Image) Compute(flops float64) { im.img.Compute(flops) }

// Sleep advances this image by d nanoseconds (slept for real on the native
// backend).
func (im *Image) Sleep(d pgas.Time) { im.img.Sleep(d) }

// SyncAll synchronizes the current team (CAF "sync all", and "sync team"
// when inside a change-team block), dispatched through the hierarchy
// policy — TDLB on the two-level runtime.
func (im *Image) SyncAll() {
	im.guardTeam("sync all")
	im.pol.Barrier(im.view())
}

// SyncImages synchronizes pairwise with the listed images (1-based, current
// team).
func (im *Image) SyncImages(images []int) {
	im.guardTeam("sync images")
	v := im.view()
	globals := make([]int, 0, len(images))
	for _, idx := range images {
		globals = append(globals, v.T.GlobalRank(teamRank(v, "sync images", "partner", idx)))
	}
	im.img.SyncImages(globals)
}

// CoSum reduces a element-wise by summation across the current team; every
// image receives the result (CAF co_sum). CoSumT is the generic form.
func (im *Image) CoSum(a []float64) { CoSumT(im, a) }

// CoMax reduces element-wise by maximum (CAF co_max).
func (im *Image) CoMax(a []float64) { CoMaxT(im, a) }

// CoMin reduces element-wise by minimum (CAF co_min).
func (im *Image) CoMin(a []float64) { CoMinT(im, a) }

// CoSumTo reduces a by summation onto resultImage only (1-based, current
// team) — the CAF co_sum(result_image=...) form. Other images' buffers are
// left with partial values.
func (im *Image) CoSumTo(a []float64, resultImage int) {
	CoSumToT(im, a, resultImage)
}

// CoReduce reduces with a caller-supplied associative, commutative
// operation.
func (im *Image) CoReduce(a []float64, name string, combine func(dst, src []float64)) {
	CoReduceT(im, a, name, combine)
}

// CoBroadcast broadcasts a from sourceImage (1-based, current team) to the
// whole team (CAF co_broadcast).
func (im *Image) CoBroadcast(a []float64, sourceImage int) {
	CoBroadcastT(im, a, sourceImage)
}

// CoAllgather concatenates every image's mine vector into out, ordered by
// team rank, on every image of the current team. out must hold
// NumImages()*len(mine) elements.
func (im *Image) CoAllgather(mine, out []float64) {
	CoAllgatherT(im, mine, out)
}

// CoScatter distributes per-image blocks from sourceImage (1-based, current
// team): every image receives its len(recv)-element block of the source's
// send vector (significant only at the source, NumImages()*len(recv)
// elements there). CoScatterT is the generic form.
func (im *Image) CoScatter(send, recv []float64, sourceImage int) {
	CoScatterT(im, send, recv, sourceImage)
}

// CoGather collects every image's send block into recv on resultImage
// (1-based, current team) only, ordered by team rank. CoGatherT is the
// generic form.
func (im *Image) CoGather(send, recv []float64, resultImage int) {
	CoGatherT(im, send, recv, resultImage)
}

// CoAlltoall performs the personalized all-to-all exchange over the current
// team: send block j goes to image j+1, recv block i arrives from image
// i+1. CoAlltoallT is the generic form.
func (im *Image) CoAlltoall(send, recv []float64) {
	CoAlltoallT(im, send, recv)
}

// CoScan computes the element-wise prefix sum over image order in place:
// inclusive (a becomes the sum over images [1, me]) or exclusive (over
// [1, me); image 1's a is left unchanged). CoScanT is the generic form.
func (im *Image) CoScan(a []float64, exclusive bool) {
	CoScanT(im, a, exclusive)
}

// Team is a formed team handle (the team_type value).
type Team struct{ v *team.View }

// FormTeam splits the current team into subteams by number (CAF "form
// team (number, team)"). Every image of the current team must call it.
// Images passing the same number join the same subteam, ordered by current
// team rank.
func (im *Image) FormTeam(number int64) *Team {
	im.guardTeam("form team")
	return &Team{v: im.view().Form(number, -1)}
}

// FormTeamIndexed is FormTeam with an explicit NEW_INDEX (1-based rank
// request within the new team).
func (im *Image) FormTeamIndexed(number int64, newIndex int) *Team {
	im.guardTeam("form team")
	return &Team{v: im.view().Form(number, newIndex-1)}
}

// TeamNumber returns the team number of this image's team t (CAF team_id
// when applied to a formed team).
func (t *Team) TeamNumber() int64 { return t.v.T.Number() }

// NumImages returns t's size.
func (t *Team) NumImages() int { return t.v.NumImages() }

// ThisImage returns the caller's 1-based index within t.
func (t *Team) ThisImage() int { return t.v.Rank + 1 }

// ChangeTeam executes body with t as the current team (the CAF
// "change team (t) ... end team" block). Team-relative intrinsics,
// synchronization and collectives inside body operate on t.
func (im *Image) ChangeTeam(t *Team, body func()) {
	im.stack = append(im.stack, t.v)
	defer func() { im.stack = im.stack[:len(im.stack)-1] }()
	body()
}

// GridTeams forms row and column teams of a p×q process grid over the
// current team (rank = row*q + col), the decomposition the HPL port uses.
func (im *Image) GridTeams(p, q int) (row, col *Team, err error) {
	im.guardTeam("form team")
	rv, cv, err := im.view().Grid(p, q)
	if err != nil {
		return nil, nil, err
	}
	return &Team{v: rv}, &Team{v: cv}, nil
}

// Coarray is a symmetric shared array of float64 allocated across the
// current team at creation time — the default-typed shorthand for
// CoarrayT[float64] (see NewCoarrayT for other element types).
type Coarray = CoarrayT[float64]

// NewCoarray collectively allocates a coarray of n float64 elements per
// image of the current team. Coarrays allocated inside a ChangeTeam block
// exist only on that team's images — the paper's team-scoped allocation.
func (im *Image) NewCoarray(name string, n int) *Coarray {
	return NewCoarrayT[float64](im, name, n)
}

// SyncMemory blocks until all one-sided operations issued by this image
// have completed (CAF "sync memory").
func (im *Image) SyncMemory() { im.img.Quiet() }

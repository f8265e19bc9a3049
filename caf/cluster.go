package caf

import (
	"cafteams/internal/cluster"
	"cafteams/internal/pgas"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// LaunchOn starts an SPMD job on an externally owned, possibly shared
// cluster — the multi-job counterpart of Run. Unlike Run it does not build
// a private simulation: the job's images are spawned into cl's environment
// and the caller (normally a cluster.Scheduler driving cl.Env().Run)
// advances the simulation. Jobs launched onto overlapping nodes contend on
// the same per-node NIC, progress-engine and memory-bus resources, which is
// the point.
//
// topo places the job's images on cl's physical nodes (use
// Cluster.Topology on a scheduler placement; node ids may be gappy and
// ranks non-contiguous). cfg.Model and cfg.Conduit are ignored — the
// machine belongs to the cluster. onDone, if non-nil, runs in simulation
// context after the job's last image finishes.
//
// LaunchOn returns after scheduling the images, with a handle on the
// running job; the Report passed to onDone carries the final stats snapshot
// and any image failures. onDone fires when the job's last image *ends* —
// finished, killed, or failed — so a faulted job still completes from the
// scheduler's point of view instead of wedging it.
func LaunchOn(cl *cluster.Cluster, topo *topology.Topology, cfg Config, label string, body func(im *Image), onDone func(Report)) (*Job, error) {
	w, newImage, err := cfg.newWorld(cfg.level(), func(stats *trace.Stats) (*pgas.World, error) {
		return pgas.NewWorldOn(cl, topo, stats)
	})
	if err != nil {
		return nil, err
	}
	w.SetLabel(label)
	n := topo.NumImages()
	remaining := n
	start := cl.Env().Now()
	w.Launch(func(pim *pgas.Image) {
		// Classify this image's end (recording a failure if it panicked
		// or observed one) *before* the countdown, so the Report the last
		// image hands to onDone includes every failure — then let the
		// recovered value vanish: the countdown below must run for killed
		// and failed images too, or the job would never report done.
		defer func() {
			w.ObserveImageEnd(pim, recover())
			remaining--
			if remaining == 0 && onDone != nil {
				onDone(Report{Elapsed: cl.Env().Now() - start, Stats: w.Stats().Snapshot(),
					Images: n, Backend: w.Backend(), Failures: w.Failures()})
			}
		}()
		body(newImage(pim))
	})
	return &Job{w: w, Stats: w.Stats()}, nil
}

// Job is a handle on a job launched with LaunchOn: the scheduler uses it to
// kill images when a node fails and to inspect the job's failure state.
type Job struct {
	w *pgas.World
	// Stats is the job's live statistics collector (snapshotted into the
	// Report handed to onDone).
	Stats *trace.Stats
}

// KillNodeImages kills every image of this job hosted on physical node
// (announced to the survivors) — what a node crash does to the job. Must be
// called from simulation context (a scheduler event). Returns how many
// images it killed.
func (j *Job) KillNodeImages(node int) int {
	killed := 0
	topo := j.w.Topology()
	for r := 0; r < j.w.NumImages(); r++ {
		if topo.NodeOf(r) == node {
			j.w.KillImage(r)
			killed++
		}
	}
	return killed
}

// FailedImages returns the global ranks (0-based) of this job's announced
// failed images.
func (j *Job) FailedImages() []int { return j.w.FailedImages() }

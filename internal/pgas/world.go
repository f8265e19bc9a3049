// Package pgas implements the PGAS (Partitioned Global Address Space)
// runtime: SPMD images, symmetric-heap coarrays, one-sided Put/Get, remote
// atomics, and synchronization flags with "carry" semantics (wait on a
// monotonically increasing counter — the single-wait structure the paper's
// dissemination barrier relies on).
//
// The runtime is split along a Transport seam (transport.go). Image, World,
// Coarray, Flags, events and the split-phase progress engine are
// backend-agnostic; two transports execute them:
//
//   - the sim backend (simbackend.go): images run as deterministic simulated
//     processes (internal/sim), every remote operation is charged through
//     the machine model (internal/machine), and traffic serializes through
//     per-node resources — nic[n] for inter-node messages, progress[n] for
//     intra-node messages sent through the *portable conduit path* (how the
//     paper's flat, hierarchy-oblivious collectives address every peer: "on
//     a shared memory system, in the worst case, all those notifications
//     would have to be serialized"), and membus[n] for the direct
//     shared-memory path hierarchy-aware algorithms use for peers they know
//     to be on the same node.
//
//   - the native backend (nativebackend.go): images run as real goroutines
//     in this process's address space; puts are memcpys, flags are
//     sync/atomic cells, waits are condition variables, and timing is the
//     wall clock.
//
// The distinction between the conduit path and the shared-memory path is
// exactly the lever the paper's two-level methodology exploits; the sim
// backend models it, the native backend embodies it.
package pgas

import (
	"fmt"
	"sync"

	"cafteams/internal/machine"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// Via selects the transport path for a one-sided operation.
type Via int

const (
	// ViaConduit is the portable one-sided path (GASNet put in the
	// paper): it works for any target but pays conduit costs even for
	// on-node peers.
	ViaConduit Via = iota
	// ViaShm is the direct shared-memory path; valid only when source and
	// target share a node. Hierarchy-aware algorithms use it for their
	// intra-node phases.
	ViaShm
	// ViaAuto picks ViaShm when the peers share a node, ViaConduit
	// otherwise. This is what a memory-hierarchy-aware runtime does for
	// point-to-point traffic.
	ViaAuto
)

func (v Via) String() string {
	switch v {
	case ViaConduit:
		return "conduit"
	case ViaShm:
		return "shm"
	case ViaAuto:
		return "auto"
	default:
		return fmt.Sprintf("via(%d)", int(v))
	}
}

// World is one SPMD program instance: a set of images placed on a machine.
// All images share the World object; per-image state lives in Image.
//
// Which machine, and what "time" means, is the transport's business: a
// World built with NewWorld/NewWorldOn runs on the discrete-event sim
// backend (the hardware — clock, cost model, per-node serializing
// resources — is owned by a cluster.Cluster, shareable between jobs); a
// World built with NewNativeWorld runs its images as real goroutines on
// this machine with wall-clock timing.
type World struct {
	tr     Transport
	sim    *simWorld    // backend-private state: the constructor that chose tr
	native *nativeWorld // set exactly one of the two
	model  *machine.Model
	topo   *topology.Topology
	stats  *trace.Stats

	images []*Image

	// faults is the world's failure state: announced failed images, fault
	// plan, detection timers. Always non-nil; inert until configured (see
	// fault.go).
	faults *faultCtx

	// registry holds world-wide named objects (teams, flags, coarrays,
	// collective scratch state). Creation is once-per-key: on the native
	// backend many images race to the first use of an allocation, and all
	// of them must attach to the single shared object. Entries carry their
	// own sync.Once so mk functions may nest LookupOrCreate calls for
	// *other* keys (team builds allocate flags) without self-deadlock.
	regMu    sync.Mutex
	registry map[string]*regEntry

	// label prefixes image names in process listings and deadlock reports,
	// so co-scheduled jobs' images tell apart. Empty for single-job worlds.
	label string
}

type regEntry struct {
	once sync.Once
	v    interface{}
}

// newWorld builds the backend-agnostic part of a world.
func newWorld(tr Transport, model *machine.Model, topo *topology.Topology, stats *trace.Stats) *World {
	if stats == nil {
		stats = trace.New()
	}
	w := &World{
		tr:       tr,
		model:    model,
		topo:     topo,
		stats:    stats,
		registry: make(map[string]*regEntry),
	}
	// One slab for all images: a world's set-up cost is its allocations.
	images := make([]Image, topo.NumImages())
	w.images = make([]*Image, len(images))
	for r := range images {
		images[r] = Image{w: w, rank: r, node: topo.NodeOf(r)}
		w.images[r] = &images[r]
	}
	w.faults = newFaultCtx(w)
	return w
}

// Backend returns the name of the transport this world runs on ("sim" or
// "native").
func (w *World) Backend() string { return w.tr.Name() }

// Model returns the machine model.
func (w *World) Model() *machine.Model { return w.model }

// Topology returns the cluster topology.
func (w *World) Topology() *topology.Topology { return w.topo }

// Stats returns the statistics collector.
func (w *World) Stats() *trace.Stats { return w.stats }

// NumImages returns the number of images in the world (the initial team
// size).
func (w *World) NumImages() int { return len(w.images) }

// Image returns image rank r (0-based).
func (w *World) Image(r int) *Image { return w.images[r] }

// SetLabel names this world's images in process listings
// ("<label>/image3"); useful when several jobs share one environment.
func (w *World) SetLabel(label string) {
	if label != "" {
		w.label = label + "/"
	} else {
		w.label = ""
	}
}

// Launch spawns every image running body and returns after all are
// started; complete the run with the backend's driver (Env().Run for a
// shared sim cluster, or World.Run which launches and drives in one call).
//
// Every image body runs under a classifier that turns a forced kill or an
// unrecovered *FailedImageError into a recorded image failure; arbitrary
// panics are contained too when ContainPanics (or any fault machinery) is
// enabled, and re-raised to the driver otherwise. A body that returns with
// split-phase operations in flight is such a panic; however a body ends, its
// parked operations are stopped first.
func (w *World) Launch(body func(img *Image)) {
	fc := w.faults
	w.tr.Launch(w, func(im *Image) {
		defer func() { fc.imageDone(im, recover()) }()
		body(im)
	})
}

// Run launches body on every image and drives execution to completion,
// returning the end time (simulated on the sim backend, wall-clock
// nanoseconds on the native backend). On the sim backend it panics on
// simulated deadlock (a correctness bug in the parallel program).
func (w *World) Run(body func(img *Image)) Time {
	w.Launch(body)
	return w.tr.Drive(w)
}

// lookupOrCreate returns the named world object, creating it with mk on
// first use. Exactly one caller's mk runs per key; every other image
// attaches to the object it produced. mk may call lookupOrCreate for other
// keys (but not its own).
func (w *World) lookupOrCreate(key string, mk func() interface{}) interface{} {
	w.regMu.Lock()
	e, ok := w.registry[key]
	if !ok {
		e = &regEntry{}
		w.registry[key] = e
	}
	w.regMu.Unlock()
	e.once.Do(func() { e.v = mk() })
	return e.v
}

// LookupOrCreate exposes the world-wide named-object registry to the layers
// above (teams, collective scratch state). The first image to reach a
// collective allocation creates the shared object; later arrivals attach.
func LookupOrCreate(w *World, key string, mk func() interface{}) interface{} {
	return w.lookupOrCreate(key, mk)
}

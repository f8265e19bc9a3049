// Package cluster models a shared, multi-tenant machine: one simulation
// environment, one hardware cost model, and one set of per-node serializing
// resources (NIC, conduit progress engine, memory bus) that several
// concurrently running SPMD jobs contend on.
//
// The paper's collectives were measured on a shared 44-node cluster; this
// package makes the reproduction's machine shared too. A Cluster owns the
// hardware that internal/pgas.World previously built privately, so several
// Worlds (jobs) placed on overlapping nodes serialize through the *same*
// nic/progress/membus resources — co-located jobs slow each other down
// exactly where the machine model says they must.
//
// On top of the hardware the package provides the scheduling side of a
// shared machine: a seeded LoadGen emitting a job arrival stream from
// per-tenant workload mixes, pluggable placement Policies (packed first-fit,
// round-robin spread, k-choices over an idle-node heap, per-tenant node
// quotas), and an event-driven Scheduler that queues, places, starts and
// retires jobs inside the simulation, collecting per-job wait/turnaround and
// cluster utilization metrics. cmd/clustersim drives all of it and compares
// policies against an ideal no-contention comparator.
package cluster

import (
	"fmt"

	"cafteams/internal/machine"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
)

// Cluster is the shared machine: simulation clock, cost model, per-node
// serializing resources, and the core-allocation table the scheduler
// assigns jobs from. All methods must be called in the simulation's
// scheduler context (or before the simulation starts); see sim.Env for
// the sharing contract.
type Cluster struct {
	env   *sim.Env
	model *machine.Model

	nodes          int
	socketsPerNode int
	coresPerSocket int

	nic      []*sim.Resource // per node: network interface
	progress []*sim.Resource // per node: conduit software progress engine
	membus   []*sim.Resource // per node: shared-memory path

	// coreUsed[n][c] marks core c of node n as allocated to a running job.
	coreUsed  [][]bool
	freeCores []int // per node
	// totalFree counts unallocated cores on *up* nodes only: a down node's
	// cores exist but cannot be allocated, so they are excluded until repair.
	totalFree int
	// down[n] marks node n crashed/draining: no new allocations land there,
	// and its free cores don't count toward totalFree.
	down []bool

	// busyCoreNS accumulates core-nanoseconds of completed allocations,
	// for utilization reporting.
	busyCoreNS sim.Time
}

// NewWithEnv builds a cluster on an existing simulation environment. Use New
// unless the environment is shared with other machinery (pgas.NewWorld uses
// this form to keep its historical signature).
func NewWithEnv(env *sim.Env, model *machine.Model, nodes, socketsPerNode, coresPerSocket int) (*Cluster, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 || socketsPerNode <= 0 || coresPerSocket <= 0 {
		return nil, fmt.Errorf("cluster: non-positive shape %dx%dx%d", nodes, socketsPerNode, coresPerSocket)
	}
	c := &Cluster{
		env:            env,
		model:          model,
		nodes:          nodes,
		socketsPerNode: socketsPerNode,
		coresPerSocket: coresPerSocket,
		freeCores:      make([]int, nodes),
		totalFree:      nodes * socketsPerNode * coresPerSocket,
		down:           make([]bool, nodes),
	}
	for n := 0; n < nodes; n++ {
		c.nic = append(c.nic, sim.NewResource(fmt.Sprintf("nic%d", n)))
		c.progress = append(c.progress, sim.NewResource(fmt.Sprintf("progress%d", n)))
		c.membus = append(c.membus, sim.NewResource(fmt.Sprintf("membus%d", n)))
		c.coreUsed = append(c.coreUsed, make([]bool, socketsPerNode*coresPerSocket))
		c.freeCores[n] = socketsPerNode * coresPerSocket
	}
	return c, nil
}

// New builds a cluster with its own fresh simulation environment.
func New(model *machine.Model, nodes, socketsPerNode, coresPerSocket int) (*Cluster, error) {
	return NewWithEnv(sim.NewEnv(), model, nodes, socketsPerNode, coresPerSocket)
}

// Env returns the simulation environment the cluster's jobs run in.
func (c *Cluster) Env() *sim.Env { return c.env }

// Model returns the hardware cost model.
func (c *Cluster) Model() *machine.Model { return c.model }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return c.nodes }

// CoresPerNode returns the core count per node.
func (c *Cluster) CoresPerNode() int { return c.socketsPerNode * c.coresPerSocket }

// TotalCores returns the machine's total core count.
func (c *Cluster) TotalCores() int { return c.nodes * c.CoresPerNode() }

// NICs returns the per-node NIC resources (shared across all jobs).
func (c *Cluster) NICs() []*sim.Resource { return c.nic }

// ProgressEngines returns the per-node conduit progress-engine resources.
func (c *Cluster) ProgressEngines() []*sim.Resource { return c.progress }

// Membuses returns the per-node shared-memory-path resources.
func (c *Cluster) Membuses() []*sim.Resource { return c.membus }

// FreeCores returns the number of unallocated cores on node n.
func (c *Cluster) FreeCores(n int) int { return c.freeCores[n] }

// TotalFree returns the number of unallocated cores machine-wide.
func (c *Cluster) TotalFree() int { return c.totalFree }

// FreeCoreIDs returns the ascending list of unallocated core ids on node n,
// or nil when the node is down (a down node offers nothing to place on).
func (c *Cluster) FreeCoreIDs(n int) []int {
	if c.down[n] {
		return nil
	}
	var out []int
	for core, used := range c.coreUsed[n] {
		if !used {
			out = append(out, core)
		}
	}
	return out
}

// NodeDown reports whether node n is marked down.
func (c *Cluster) NodeDown(n int) bool { return c.down[n] }

// MarkNodeDown takes node n out of service: placement policies see no free
// cores there (FreeCoreIDs returns nil, totalFree drops by the node's free
// cores) and Allocate rejects locations on it. Cores already allocated to
// running jobs stay allocated — the jobs' images are the caller's problem
// (the scheduler kills them); when those jobs release, the freed cores stay
// out of totalFree until MarkNodeUp. Idempotent.
func (c *Cluster) MarkNodeDown(n int) {
	if c.down[n] {
		return
	}
	c.down[n] = true
	c.totalFree -= c.freeCores[n]
}

// MarkNodeUp returns a repaired node to service, crediting its free cores
// back to the allocatable pool. Idempotent.
func (c *Cluster) MarkNodeUp(n int) {
	if !c.down[n] {
		return
	}
	c.down[n] = false
	c.totalFree += c.freeCores[n]
}

// Allocate marks every (node, core) in locs as owned by a job. It fails
// without side effects if any location is out of range or already taken —
// a placement-policy bug, not a transient condition.
func (c *Cluster) Allocate(locs []topology.Loc) error {
	for i, l := range locs {
		if l.Node < 0 || l.Node >= c.nodes || l.Core < 0 || l.Core >= c.CoresPerNode() {
			return fmt.Errorf("cluster: image %d location %+v outside %dx%d machine", i, l, c.nodes, c.CoresPerNode())
		}
		if c.down[l.Node] {
			c.rollback(locs[:i])
			return fmt.Errorf("cluster: image %d placed on down node %d", i, l.Node)
		}
		if c.coreUsed[l.Node][l.Core] {
			c.rollback(locs[:i])
			return fmt.Errorf("cluster: image %d core (%d,%d) already allocated", i, l.Node, l.Core)
		}
		c.coreUsed[l.Node][l.Core] = true
		c.freeCores[l.Node]--
		c.totalFree--
	}
	return nil
}

func (c *Cluster) rollback(locs []topology.Loc) {
	for _, l := range locs {
		c.coreUsed[l.Node][l.Core] = false
		c.freeCores[l.Node]++
		// A core freed on a down node stays out of the allocatable pool
		// until MarkNodeUp credits the node's free cores back.
		if !c.down[l.Node] {
			c.totalFree++
		}
	}
}

// Release frees a job's cores and charges their busy time (held nanoseconds
// per core) to the utilization accumulator.
func (c *Cluster) Release(locs []topology.Loc, held sim.Time) {
	for _, l := range locs {
		if !c.coreUsed[l.Node][l.Core] {
			panic(fmt.Sprintf("cluster: releasing free core (%d,%d)", l.Node, l.Core))
		}
	}
	c.rollback(locs)
	if held > 0 {
		c.busyCoreNS += sim.Time(len(locs)) * held
	}
}

// Utilization returns the fraction of core-time spent running jobs over a
// horizon of makespan nanoseconds.
func (c *Cluster) Utilization(makespan sim.Time) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(c.busyCoreNS) / (float64(c.TotalCores()) * float64(makespan))
}

// Topology builds a job topology from a placement: one image per location,
// image rank i at locs[i], on this cluster's full node range (so node ids in
// the job's topology are physical node ids, possibly gappy and
// non-rank-contiguous — exactly what scheduler-produced placements look
// like). The Socket field of each location is derived from the core id.
func (c *Cluster) Topology(locs []topology.Loc) (*topology.Topology, error) {
	withSockets := make([]topology.Loc, len(locs))
	for i, l := range locs {
		l.Socket = l.Core / c.coresPerSocket
		withSockets[i] = l
	}
	return topology.NewCustom(c.nodes, c.socketsPerNode, c.coresPerSocket, withSockets)
}

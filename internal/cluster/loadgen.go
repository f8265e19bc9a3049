package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"cafteams/internal/sim"
)

// JobKind names a workload class a job runs. The kinds are the repository's
// existing workloads, scaled down to job-sized slices: dense allreduce
// sweeps, the alltoall matrix transpose, the heat2d stencil with its
// overlapped residual reduction, and the CG solver's dot-product loop.
type JobKind int

// Workload classes.
const (
	JobAllreduce JobKind = iota
	JobTranspose
	JobHeat2D
	JobCG
)

func (k JobKind) String() string {
	switch k {
	case JobAllreduce:
		return "allreduce"
	case JobTranspose:
		return "transpose"
	case JobHeat2D:
		return "heat2d"
	case JobCG:
		return "cg"
	default:
		return fmt.Sprintf("jobkind(%d)", int(k))
	}
}

// Job is one SPMD job in the arrival stream: what to run, how big, and when
// it arrives.
type Job struct {
	ID     int
	Tenant int
	Kind   JobKind
	// Images is the number of SPMD images (= cores) the job needs.
	Images int
	// Elems is the per-image payload size of the job's collectives.
	Elems int
	// Iters is the number of workload iterations.
	Iters int
	// Arrival is when the job enters the cluster's queue.
	Arrival sim.Time
}

func (j Job) String() string {
	return fmt.Sprintf("job%d[t%d %s %dimg %delems x%d @%dus]",
		j.ID, j.Tenant, j.Kind, j.Images, j.Elems, j.Iters, j.Arrival/sim.Microsecond)
}

// IntRange is a log-uniform integer distribution on [Min, Max].
type IntRange struct {
	Min, Max int
}

func (r IntRange) sample(rng *rand.Rand) int {
	if r.Max <= r.Min {
		return r.Min
	}
	lo, hi := math.Log(float64(r.Min)), math.Log(float64(r.Max)+1)
	v := int(math.Exp(lo + rng.Float64()*(hi-lo)))
	if v < r.Min {
		v = r.Min
	}
	if v > r.Max {
		v = r.Max
	}
	return v
}

// KindWeight is one entry of a tenant's workload mix.
type KindWeight struct {
	Kind   JobKind
	Weight float64
}

// TenantProfile describes one tenant's traffic: its share of arrivals, its
// workload mix, and the distributions its job sizes are drawn from.
type TenantProfile struct {
	Name string
	// Weight is the tenant's share of the arrival stream (relative).
	Weight float64
	// Mix weights the workload classes this tenant submits.
	Mix []KindWeight
	// Images, Elems and Iters are the per-job size distributions.
	Images IntRange
	Elems  IntRange
	Iters  IntRange
}

// DefaultProfiles returns a three-tenant mix loosely shaped like a shared
// research cluster: an allreduce-heavy "ml" tenant with larger payloads, an
// alltoall-heavy "analytics" tenant, and an "hpc" tenant running stencil
// and solver jobs.
func DefaultProfiles() []TenantProfile {
	return []TenantProfile{
		{
			Name:   "ml",
			Weight: 3,
			Mix:    []KindWeight{{JobAllreduce, 4}, {JobCG, 1}},
			Images: IntRange{4, 16},
			Elems:  IntRange{256, 4096},
			Iters:  IntRange{4, 10},
		},
		{
			Name:   "analytics",
			Weight: 2,
			Mix:    []KindWeight{{JobTranspose, 3}, {JobAllreduce, 1}},
			Images: IntRange{4, 12},
			Elems:  IntRange{32, 512},
			Iters:  IntRange{3, 8},
		},
		{
			Name:   "hpc",
			Weight: 2,
			Mix:    []KindWeight{{JobHeat2D, 2}, {JobCG, 2}},
			Images: IntRange{8, 24},
			Elems:  IntRange{64, 1024},
			Iters:  IntRange{5, 12},
		},
	}
}

// LoadGen generates a seeded job arrival stream from tenant profiles.
// Arrivals are a Poisson process (exponential interarrival gaps around
// MeanGap); each arrival picks a tenant by weight, then a kind from that
// tenant's mix, then sizes from its distributions. All randomness flows
// through the explicit *rand.Rand, so equal seeds give byte-identical
// streams — there are no package-level generators.
type LoadGen struct {
	rng      *rand.Rand
	profiles []TenantProfile
	// MeanGap is the mean interarrival gap.
	MeanGap sim.Time

	nextID int
	now    sim.Time
}

// NewLoadGen builds a generator. rng must not be nil; profiles must be
// non-empty with positive total weight.
func NewLoadGen(rng *rand.Rand, profiles []TenantProfile, meanGap sim.Time) (*LoadGen, error) {
	if rng == nil {
		return nil, fmt.Errorf("cluster: LoadGen needs an explicit *rand.Rand")
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("cluster: LoadGen needs at least one tenant profile")
	}
	if meanGap <= 0 {
		return nil, fmt.Errorf("cluster: non-positive mean interarrival gap %d", meanGap)
	}
	tot := 0.0
	for _, p := range profiles {
		if p.Weight < 0 {
			return nil, fmt.Errorf("cluster: tenant %q has negative weight", p.Name)
		}
		tot += p.Weight
		mixTot := 0.0
		for _, kw := range p.Mix {
			mixTot += kw.Weight
		}
		if mixTot <= 0 {
			return nil, fmt.Errorf("cluster: tenant %q has empty workload mix", p.Name)
		}
		if p.Images.Min < 1 || p.Elems.Min < 1 || p.Iters.Min < 1 {
			return nil, fmt.Errorf("cluster: tenant %q has non-positive size distribution", p.Name)
		}
	}
	if tot <= 0 {
		return nil, fmt.Errorf("cluster: zero total tenant weight")
	}
	return &LoadGen{rng: rng, profiles: profiles, MeanGap: meanGap}, nil
}

// Profiles returns the tenant profiles, indexed by Job.Tenant.
func (g *LoadGen) Profiles() []TenantProfile { return g.profiles }

func (g *LoadGen) pickTenant() int {
	tot := 0.0
	for _, p := range g.profiles {
		tot += p.Weight
	}
	x := g.rng.Float64() * tot
	for i, p := range g.profiles {
		x -= p.Weight
		if x < 0 {
			return i
		}
	}
	return len(g.profiles) - 1
}

func (p TenantProfile) pickKind(rng *rand.Rand) JobKind {
	tot := 0.0
	for _, kw := range p.Mix {
		tot += kw.Weight
	}
	x := rng.Float64() * tot
	for _, kw := range p.Mix {
		x -= kw.Weight
		if x < 0 {
			return kw.Kind
		}
	}
	return p.Mix[len(p.Mix)-1].Kind
}

// Next draws the next job of the arrival stream.
func (g *LoadGen) Next() Job {
	g.now += sim.Time(g.rng.ExpFloat64() * float64(g.MeanGap))
	ti := g.pickTenant()
	p := g.profiles[ti]
	j := Job{
		ID:      g.nextID,
		Tenant:  ti,
		Kind:    p.pickKind(g.rng),
		Images:  p.Images.sample(g.rng),
		Elems:   p.Elems.sample(g.rng),
		Iters:   p.Iters.sample(g.rng),
		Arrival: g.now,
	}
	g.nextID++
	return j
}

// Jobs draws the next n jobs, in arrival order.
func (g *LoadGen) Jobs(n int) []Job {
	out := make([]Job, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.Next())
	}
	return out
}

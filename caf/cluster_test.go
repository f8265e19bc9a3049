package caf

import (
	"runtime"
	"testing"

	"cafteams/internal/cluster"
	"cafteams/internal/machine"
	"cafteams/internal/topology"
)

func launchSumJob(t *testing.T, cl *cluster.Cluster, label string, locs []topology.Loc, iters int, rep *Report) {
	t.Helper()
	topo, err := cl.Topology(locs)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumImages()
	_, err = LaunchOn(cl, topo, Config{}, label, func(im *Image) {
		for it := 0; it < iters; it++ {
			x := []float64{float64(im.ThisImage())}
			im.CoSum(x)
			if want := float64(n*(n+1)) / 2; x[0] != want {
				t.Errorf("%s iter %d image %d: co_sum = %v, want %v", label, it, im.ThisImage(), x[0], want)
			}
		}
	}, func(r Report) { *rep = r })
	if err != nil {
		t.Fatal(err)
	}
}

// TestLaunchOnSharedCluster runs two co-located jobs through the public
// entry point: both must compute correct sums, both onDone callbacks must
// fire, and the shared machine must make them slower than a lone job on
// identical cores.
func TestLaunchOnSharedCluster(t *testing.T) {
	jobLocs := [][]topology.Loc{
		{{Node: 0, Core: 0}, {Node: 0, Core: 1}, {Node: 1, Core: 0}, {Node: 1, Core: 1}},
		{{Node: 0, Core: 2}, {Node: 0, Core: 3}, {Node: 1, Core: 2}, {Node: 1, Core: 3}},
	}
	run := func(jobs int) []Report {
		cl, err := cluster.New(machine.PaperCluster(), 2, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]Report, jobs)
		for j := 0; j < jobs; j++ {
			launchSumJob(t, cl, "job", jobLocs[j], 30, &reps[j])
		}
		if err := cl.Env().Run(0); err != nil {
			t.Fatal(err)
		}
		return reps
	}
	lone := run(1)
	both := run(2)
	for j, r := range both {
		if r.Images != 4 || r.Elapsed == 0 {
			t.Fatalf("job %d report %+v not filled in", j, r)
		}
	}
	if both[0].Elapsed <= lone[0].Elapsed {
		t.Fatalf("co-located job not slower: alone=%dns shared=%dns", lone[0].Elapsed, both[0].Elapsed)
	}
}

// TestLaunchOnValidation pins the error paths: bad tuning names and
// topologies the cluster cannot host.
func TestLaunchOnValidation(t *testing.T) {
	cl, err := cluster.New(machine.PaperCluster(), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cl.Topology([]topology.Loc{{Node: 0, Core: 0}, {Node: 1, Core: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LaunchOn(cl, topo, Config{}.WithAlgorithm(KindAllreduce, "no-such-alg"), "j", func(*Image) {}, nil); err == nil {
		t.Fatal("unknown algorithm name accepted")
	}
	big, err := topology.New(4, 2, 2, 8, topology.PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LaunchOn(cl, big, Config{}, "j", func(*Image) {}, nil); err == nil {
		t.Fatal("oversized topology accepted")
	}
}

// TestFinishedJobsAreNotRetained: a long-lived cluster environment holds
// nothing of a finished job — 500 jobs run back to back on one sim.Env, each
// with a quarter-megabyte world, and the live heap does not grow with the
// number of jobs finished. (A finished sim process used to stay in the Env
// with a hook into its image, and through it the whole world.)
func TestFinishedJobsAreNotRetained(t *testing.T) {
	cl, err := cluster.New(machine.PaperCluster(), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cl.Topology([]topology.Loc{{Node: 0, Core: 0}, {Node: 0, Core: 1}, {Node: 1, Core: 0}, {Node: 1, Core: 1}})
	if err != nil {
		t.Fatal(err)
	}
	const jobs, elems = 500, 8192 // 4 images x 64 KiB of coarray per job
	const early = 100             // finished jobs at the first of the two readings
	live := map[int]uint64{}
	var launch func(j int)
	launch = func(j int) {
		_, err := LaunchOn(cl, topo, Config{}, "job", func(im *Image) {
			co := NewCoarrayT[float64](im, "payload", elems)
			co.Local(im)[elems-1] = float64(im.ThisImage())
			im.SyncAll()
			x := []float64{co.Local(im)[elems-1]}
			im.CoSum(x)
			if x[0] != 10 {
				t.Errorf("job %d: co_sum = %v, want 10", j, x[0])
			}
		}, func(Report) {
			if j == early || j == jobs-1 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				live[j] = ms.HeapAlloc
			}
			if j+1 < jobs {
				launch(j + 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	launch(0)
	if err := cl.Env().Run(0); err != nil {
		t.Fatal(err)
	}
	if live[jobs-1] == 0 {
		t.Fatal("the job chain did not run to its end")
	}
	// Both readings see the same live set up to noise; 400 retained worlds
	// would be about 100 MB.
	if grown := int64(live[jobs-1]) - int64(live[early]); grown > 4<<20 {
		t.Fatalf("live heap grew by %d KiB over %d finished jobs (%d -> %d)", grown>>10, jobs-1-early, live[early], live[jobs-1])
	}
}

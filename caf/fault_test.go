package caf

// End-to-end failed-image demos at the public API, on both backends: a node
// dies mid-allreduce, the survivors observe STAT_FAILED_IMAGE instead of
// hanging, form a survivor team, and complete the collective there with the
// correct survivor-only result. Plus the panic-containment regression: a
// panicking image body surfaces as an image failure in the run report, never
// as a crashed process.

import (
	"errors"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"cafteams/internal/pgas"
)

// runNodeCrashRecovery is the shared demo body: 6 images on 3 nodes, node 1
// (global images 3 and 4) is killed while the whole team is inside CoSum.
// victimNap must put the victims past the kill time so they never
// contribute; survivors' collective waits are interrupted by the kill
// announcement.
func runNodeCrashRecovery(t *testing.T, cfg Config, killAt pgas.Time, victimNap pgas.Time) {
	t.Helper()
	cfg.Spec = "6(3)"
	cfg.FaultPlan = &FaultPlan{Events: []FaultEvent{
		{At: killAt, Kind: FaultKillNode, Node: 1},
	}}
	// Survivors are global images 1,2,5,6 → their sum is 14; the full-team
	// sum 21 must never appear (no victim ever contributed).
	const survivorSum = 1 + 2 + 5 + 6
	rep, err := Run(cfg, func(im *Image) {
		if im.Node() == 1 {
			im.Sleep(victimNap) // killed mid-nap; the body never gets further
			t.Errorf("victim image %d survived the node kill", im.GlobalImage())
			return
		}
		a := []float64{float64(im.GlobalImage())}
		st := im.CoSumStat(a)
		if st != StatFailedImage {
			t.Errorf("image %d: allreduce over a dead node returned %v, want %v",
				im.GlobalImage(), st, StatFailedImage)
			return
		}
		// Rendezvous on both victims being announced before shrinking, so
		// the survivor team is computed from the complete failed set.
		failed := im.AwaitFailedImages(2)
		if len(failed) != 2 || failed[0] != 3 || failed[1] != 4 {
			t.Errorf("image %d: FailedImages = %v, want [3 4]", im.GlobalImage(), failed)
			return
		}
		survivors := im.FormTeamSurvivors()
		if n := survivors.NumImages(); n != 4 {
			t.Errorf("image %d: survivor team has %d images, want 4", im.GlobalImage(), n)
			return
		}
		im.ChangeTeam(survivors, func() {
			b := []float64{float64(im.GlobalImage())} // fresh contribution
			im.CoSum(b)
			if b[0] != survivorSum {
				t.Errorf("image %d: survivor allreduce = %v, want %v",
					im.GlobalImage(), b[0], float64(survivorSum))
			}
		})
	})
	var fre *FailedRunError
	if !errors.As(err, &fre) {
		t.Fatalf("Run error = %v, want *FailedRunError", err)
	}
	var ranks []int
	for _, f := range rep.Failures {
		if f.Cause != pgas.CauseKilled {
			t.Errorf("failure %+v: cause %q, want %q", f, f.Cause, pgas.CauseKilled)
		}
		ranks = append(ranks, f.Rank)
	}
	sort.Ints(ranks)
	if len(ranks) != 2 || ranks[0] != 2 || ranks[1] != 3 {
		t.Fatalf("failed ranks = %v, want [2 3]", ranks)
	}
}

// TestSimNodeCrashMidAllreduceRecovery: the headline demo on the simulated
// backend (times are simulated nanoseconds).
func TestSimNodeCrashMidAllreduceRecovery(t *testing.T) {
	runNodeCrashRecovery(t, Config{Backend: BackendSim},
		50*pgas.Microsecond, pgas.Second)
}

// TestNativeNodeCrashMidAllreduceRecovery: the same demo on real goroutines
// (times are wall-clock nanoseconds, kept loose).
func TestNativeNodeCrashMidAllreduceRecovery(t *testing.T) {
	runNodeCrashRecovery(t, Config{Backend: BackendNative},
		pgas.Time((2 * time.Millisecond).Nanoseconds()),
		pgas.Time((20 * time.Millisecond).Nanoseconds()))
}

// awaitGoroutines waits for the goroutine count to come back down to want:
// Run returns when every image has reported, a moment before the last image
// goroutines have finished exiting.
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before it: split-phase coroutines leaked", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// runCrashDuringAsync kills node 1 of "6(3)" while every image holds two
// in-flight split-phase handles. The victims are asleep, so their parked
// coroutines never progress, and the co_sum is tuned to the ring algorithm,
// whose 2(n-1) steps each need every image to have taken the step before: it
// cannot complete anywhere on what the victims sent at initiation. The
// survivors' Wait must report the failure instead of hanging, no coroutine
// may outlive its image — killed or surviving — and a survivor that completed
// every handle with Wait (even a failed one) ends cleanly. The second pass
// tunes the co_sum to an "nb-" alias instead — still one coroutine per call,
// so an unwinding Wait leaves nothing parked behind the handle it finished;
// recursive doubling may complete on the survivors that never need a victim's
// second message.
func runCrashDuringAsync(t *testing.T, cfg Config, killAt, victimNap pgas.Time) {
	t.Helper()
	for _, alg := range []string{"ring", "nb-rd", "nb-2level"} {
		t.Run(alg, func(t *testing.T) { runCrashDuringAsyncAlg(t, cfg, alg, killAt, victimNap) })
	}
}

func runCrashDuringAsyncAlg(t *testing.T, cfg Config, alg string, killAt, victimNap pgas.Time) {
	cfg = cfg.WithAlgorithm(KindAllreduce, alg)
	cfg.Spec = "6(3)"
	cfg.FaultPlan = &FaultPlan{Events: []FaultEvent{
		{At: killAt, Kind: FaultKillNode, Node: 1},
	}}
	before := runtime.NumGoroutine()
	rep, err := Run(cfg, func(im *Image) {
		a := make([]float64, 2*im.NumImages()) // a chunk per image: the ring proper
		b := []float64{float64(im.GlobalImage())}
		h1 := im.CoSumAsync(a)
		h2 := im.CoBroadcastAsync(b, 1)
		if im.Node() == 1 {
			// Killed mid-nap, handles in flight. Napping in slices keeps a
			// loaded machine's late kill timer from outliving one nap.
			for range 500 {
				im.Sleep(victimNap)
			}
			t.Errorf("victim image %d survived the node kill", im.GlobalImage())
			return
		}
		if st := im.WithStat(h1.Wait); st != StatFailedImage && st != StatTimeout && (st != StatOK || alg == "ring") {
			t.Errorf("image %d: co_sum over a dead node completed with %v", im.GlobalImage(), st)
		}
		// The broadcast may have finished on this image before the kill.
		if st := im.WithStat(h2.Wait); st != StatOK && st != StatFailedImage && st != StatTimeout {
			t.Errorf("image %d: co_broadcast completed with %v", im.GlobalImage(), st)
		}
		if !h1.Done() || !h2.Done() {
			t.Errorf("image %d: a handle is still in flight after Wait", im.GlobalImage())
		}
	})
	var fre *FailedRunError
	if !errors.As(err, &fre) {
		t.Fatalf("Run error = %v, want *FailedRunError", err)
	}
	for _, f := range rep.Failures {
		if f.Cause != pgas.CauseKilled {
			t.Errorf("failure %+v: only the killed node may be reported", f)
		}
	}
	awaitGoroutines(t, before)
}

func TestSimNodeCrashDuringAsync(t *testing.T) {
	runCrashDuringAsync(t, Config{Backend: BackendSim}, 50*pgas.Microsecond, pgas.Second)
}

func TestNativeNodeCrashDuringAsync(t *testing.T) {
	runCrashDuringAsync(t, Config{Backend: BackendNative},
		pgas.Time((2 * time.Millisecond).Nanoseconds()),
		pgas.Time((20 * time.Millisecond).Nanoseconds()))
}

// runDeadMemberEntryPoints: node 1 of "6(3)" dies, the survivors notice,
// acknowledge the failure by finishing a co_sum on the survivor team, and go
// back to the initial team — where nothing is in flight and no *new* failure
// will ever interrupt a wait. Every collective entry point must then refuse
// the team at entry (guardTeam) instead of waiting on the dead forever: the
// split-phase collectives and the two team formations that are not FormTeam.
// An entry point that skips the guard deadlocks the simulation, and on the
// native backend runs into the wait timeout set here.
func runDeadMemberEntryPoints(t *testing.T, cfg Config, killAt, victimNap pgas.Time) {
	t.Helper()
	cfg.Spec = "6(3)"
	cfg.FaultPlan = &FaultPlan{Events: []FaultEvent{
		{At: killAt, Kind: FaultKillNode, Node: 1},
	}}
	for _, c := range []struct {
		name  string
		entry func(im *Image)
	}{
		{"CoSumAsync", func(im *Image) { im.CoSumAsync([]float64{1}).Wait() }},
		{"CoReduceAsyncT", func(im *Image) {
			CoReduceAsyncT(im, []int64{1}, "xor", func(dst, src []int64) { dst[0] ^= src[0] }).Wait()
		}},
		{"CoBroadcastAsync", func(im *Image) { im.CoBroadcastAsync([]float64{1}, 1).Wait() }},
		{"CoAllgatherAsync", func(im *Image) { im.CoAllgatherAsync([]float64{1}, make([]float64, 6)).Wait() }},
		{"FormTeamIndexed", func(im *Image) { im.FormTeamIndexed(1, im.ThisImage()) }},
		{"GridTeams", func(im *Image) { im.GridTeams(2, 3) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(cfg, func(im *Image) {
				if im.Node() == 1 {
					for range 500 { // killed mid-nap (slices: see runCrashDuringAsyncAlg)
						im.Sleep(victimNap)
					}
					t.Errorf("victim image %d survived the node kill", im.GlobalImage())
					return
				}
				if st := im.CoSumStat([]float64{1}); st != StatFailedImage {
					t.Errorf("image %d: co_sum over a dead node returned %v", im.GlobalImage(), st)
					return
				}
				im.AwaitFailedImages(2)
				im.ChangeTeam(im.FormTeamSurvivors(), func() { im.CoSum([]float64{1}) })
				if st := im.WithStat(func() { c.entry(im) }); st != StatFailedImage {
					t.Errorf("image %d: %s on a team with dead members returned %v, want %v",
						im.GlobalImage(), c.name, st, StatFailedImage)
				}
			})
			var fre *FailedRunError
			if !errors.As(err, &fre) {
				t.Fatalf("Run error = %v, want *FailedRunError", err)
			}
		})
	}
}

func TestSimDeadMemberEntryPoints(t *testing.T) {
	runDeadMemberEntryPoints(t, Config{Backend: BackendSim}, 50*pgas.Microsecond, pgas.Second)
}

func TestNativeDeadMemberEntryPoints(t *testing.T) {
	runDeadMemberEntryPoints(t, Config{Backend: BackendNative,
		Detect: DetectConfig{WaitTimeout: pgas.Time((5 * time.Second).Nanoseconds())}},
		pgas.Time((2 * time.Millisecond).Nanoseconds()),
		pgas.Time((20 * time.Millisecond).Nanoseconds()))
}

var unfinishedMsg = regexp.MustCompile(`image \d+ returned with 1 split-phase operation\(s\) unfinished`)

// runUnfinishedHandle: a body that returns with a split-phase operation in
// flight broke the contract; Run reports it, naming the image and the count,
// and the abandoned coroutines are gone.
func runUnfinishedHandle(t *testing.T, cfg Config) {
	t.Helper()
	cfg.Spec = "4(2)"
	before := runtime.NumGoroutine()
	// Whichever image initiates first cannot have completed at initiation.
	_, err := Run(cfg, func(im *Image) { im.CoSumAsync([]float64{1}) })
	var fre *FailedRunError
	if !errors.As(err, &fre) {
		t.Fatalf("Run error = %v, want *FailedRunError", err)
	}
	if msg := err.Error(); !unfinishedMsg.MatchString(msg) {
		t.Errorf("Run error %q does not name the image and the count", msg)
	}
	awaitGoroutines(t, before)
}

func TestSimUnfinishedHandleFailsRun(t *testing.T) {
	runUnfinishedHandle(t, Config{Backend: BackendSim})
}

func TestNativeUnfinishedHandleFailsRun(t *testing.T) {
	runUnfinishedHandle(t, Config{Backend: BackendNative})
}

// runPanicContainment is the satellite-1 regression body: one image panics;
// the run survives, the panic value lands in the report, and peers observe
// the failure as a status.
func runPanicContainment(t *testing.T, cfg Config) {
	t.Helper()
	cfg.Spec = "4(2)"
	rep, err := Run(cfg, func(im *Image) {
		if im.GlobalImage() == 2 {
			panic("kaboom")
		}
		if st := im.SyncAllStat(); st != StatFailedImage {
			t.Errorf("image %d: barrier with a panicked peer returned %v, want %v",
				im.GlobalImage(), st, StatFailedImage)
		}
	})
	var fre *FailedRunError
	if !errors.As(err, &fre) {
		t.Fatalf("Run error = %v, want *FailedRunError", err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("failures = %+v, want exactly one", rep.Failures)
	}
	f := rep.Failures[0]
	if f.Rank != 1 || f.Cause != pgas.CausePanic || f.PanicValue != "kaboom" {
		t.Fatalf("failure = %+v, want rank 1, cause %q, panic value \"kaboom\"",
			f, pgas.CausePanic)
	}
}

func TestSimImagePanicBecomesFailure(t *testing.T) {
	runPanicContainment(t, Config{Backend: BackendSim})
}

func TestNativeImagePanicBecomesFailure(t *testing.T) {
	runPanicContainment(t, Config{Backend: BackendNative})
}

// TestStatStrings pins the Stat codes' rendering (they appear in job
// reports and cluster summaries).
func TestStatStrings(t *testing.T) {
	for _, c := range []struct {
		st   Stat
		want string
	}{
		{StatOK, "ok"},
		{StatFailedImage, "failed-image"},
		{StatTimeout, "timeout"},
		{Stat(99), "stat(99)"},
	} {
		if got := c.st.String(); got != c.want {
			t.Errorf("Stat(%d).String() = %q, want %q", int(c.st), got, c.want)
		}
	}
}

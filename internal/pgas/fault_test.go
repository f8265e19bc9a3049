package pgas

// Fault-layer tests on the sim backend: injected kills interrupt blocked and
// future waits, panics are contained and recorded, silent deaths surface
// through heartbeats or timeouts, link faults drop and delay messages, and —
// critically for the timing-asserting rest of the suite — the zero
// DetectConfig schedules no timer events at all.

import (
	"math"
	"strings"
	"testing"
)

// catchFailed runs f and returns the *FailedImageError it panicked with
// (nil if f returned normally). Any other panic propagates.
func catchFailed(f func()) (err *FailedImageError) {
	defer func() {
		if r := recover(); r != nil {
			if e := AsFailedImageError(r); e != nil {
				err = e
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

// TestSimKillInterruptsBlockedWait: a waiter already blocked on the victim's
// flag observes the announced kill as *FailedImageError, not a hang.
func TestSimKillInterruptsBlockedWait(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	const victim = 3
	if err := w.InjectFaults(&FaultPlan{Events: []FaultEvent{
		{At: 50 * Microsecond, Kind: FaultKillImage, Image: victim},
	}}); err != nil {
		t.Fatal(err)
	}
	observed := make([]bool, w.NumImages())
	w.Run(func(im *Image) {
		fl := NewFlags(w, "never", 1)
		if im.Rank() == victim {
			im.Sleep(Second) // still asleep at kill time
			t.Errorf("victim survived its kill")
			return
		}
		err := catchFailed(func() { im.WaitFlagGE(fl, im.Rank(), 0, 1) })
		if err == nil {
			t.Errorf("rank %d wait returned without observing the kill", im.Rank())
			return
		}
		if len(err.Failed) != 1 || err.Failed[0] != victim || err.Timeout {
			t.Errorf("rank %d observed %v", im.Rank(), err)
		}
		observed[im.Rank()] = true
	})
	for r, ok := range observed {
		if r != victim && !ok {
			t.Errorf("rank %d never observed the failure", r)
		}
	}
	fails := w.Failures()
	if len(fails) != 1 || fails[0].Rank != victim || fails[0].Cause != CauseKilled {
		t.Fatalf("failures = %+v", fails)
	}
	if got := w.FailedImages(); len(got) != 1 || got[0] != victim {
		t.Fatalf("FailedImages = %v", got)
	}
}

// TestSimKillInterruptsLaterWait: an image that is busy computing when the
// kill is announced must still observe it at its *next* wait — the
// announcement is sticky until acknowledged, not a one-shot wake.
func TestSimKillInterruptsLaterWait(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	const victim = 0
	if err := w.InjectFaults(&FaultPlan{Events: []FaultEvent{
		{At: 10 * Microsecond, Kind: FaultKillImage, Image: victim},
	}}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(im *Image) {
		fl := NewFlags(w, "never", 1)
		switch im.Rank() {
		case victim:
			im.Sleep(Second)
		default:
			// Long past the announcement, enter a fresh wait.
			im.Sleep(Millisecond)
			if err := catchFailed(func() { im.WaitFlagGE(fl, im.Rank(), 0, 1) }); err == nil {
				t.Errorf("rank %d: wait entered after the announcement hung or completed", im.Rank())
			}
		}
	})
}

// TestSimAckFailuresUnblocksSurvivors: after acknowledging the announced
// failure, survivor-only synchronization completes normally.
func TestSimAckFailuresUnblocksSurvivors(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	const victim = 3
	if err := w.InjectFaults(&FaultPlan{Events: []FaultEvent{
		{At: 10 * Microsecond, Kind: FaultKillImage, Image: victim},
	}}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(im *Image) {
		fl := NewFlags(w, "pair", w.NumImages())
		if im.Rank() == victim {
			im.Sleep(Second)
			return
		}
		im.AwaitFailedImages(1)
		epoch := w.FailureEpoch()
		im.AckFailuresUpTo(epoch)
		// Survivors 0,1,2 ring-notify each other; all waits must complete.
		next := (im.Rank() + 1) % 3
		im.NotifyAdd(fl, next, next, 1, ViaAuto)
		if err := catchFailed(func() { im.WaitFlagGE(fl, im.Rank(), im.Rank(), 1) }); err != nil {
			t.Errorf("rank %d: survivor wait interrupted after ack: %v", im.Rank(), err)
		}
	})
}

// TestSimKillNodeKillsAllImagesThere: FaultKillNode takes down every image
// on the node and survivors see the full failed set.
func TestSimKillNodeKillsAllImagesThere(t *testing.T) {
	w := newTestWorld(t, 2, 2) // node 0: ranks 0,1; node 1: ranks 2,3
	if err := w.InjectFaults(&FaultPlan{Events: []FaultEvent{
		{At: 10 * Microsecond, Kind: FaultKillNode, Node: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(im *Image) {
		if im.Node() == 1 {
			im.Sleep(Second)
			return
		}
		got := im.AwaitFailedImages(2)
		if len(got) != 2 || got[0] != 2 || got[1] != 3 {
			t.Errorf("rank %d failed set = %v, want [2 3]", im.Rank(), got)
		}
	})
	if len(w.Failures()) != 2 {
		t.Fatalf("failures = %+v", w.Failures())
	}
}

// TestSimPanicContained: with ContainPanics a panicking image becomes an
// announced failure carrying the panic value; peers observe it.
func TestSimPanicContained(t *testing.T) {
	w := newTestWorld(t, 1, 4)
	w.ContainPanics()
	w.Run(func(im *Image) {
		fl := NewFlags(w, "never", 1)
		if im.Rank() == 2 {
			im.Sleep(5 * Microsecond)
			panic("boom")
		}
		if err := catchFailed(func() { im.WaitFlagGE(fl, im.Rank(), 0, 1) }); err == nil {
			t.Errorf("rank %d did not observe the panic", im.Rank())
		}
	})
	fails := w.Failures()
	if len(fails) != 1 || fails[0].Rank != 2 || fails[0].Cause != CausePanic || fails[0].PanicValue != "boom" {
		t.Fatalf("failures = %+v", fails)
	}
}

// TestSimPanicPropagatesWithoutContainment pins the legacy contract: a raw
// world without fault machinery re-raises image panics to the driver.
func TestSimPanicPropagatesWithoutContainment(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("driver recovered %v, want boom", r)
		}
	}()
	w.Run(func(im *Image) {
		if im.Rank() == 0 {
			panic("boom")
		}
	})
	t.Fatal("Run returned despite image panic")
}

// TestSimSilentKillHeartbeatDetection: a silent kill is invisible to
// announcements; the heartbeat monitor detects the stale stamp and
// announces with CauseHeartbeat.
func TestSimSilentKillHeartbeatDetection(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	w.SetDetect(DetectConfig{Heartbeat: 100 * Microsecond})
	const victim = 1
	if err := w.InjectFaults(&FaultPlan{Events: []FaultEvent{
		{At: 50 * Microsecond, Kind: FaultKillImage, Image: victim, Silent: true},
	}}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(im *Image) {
		fl := NewFlags(w, "never", 1)
		if im.Rank() == victim {
			im.Sleep(Second)
			return
		}
		err := catchFailed(func() { im.WaitFlagGE(fl, im.Rank(), 0, 1) })
		if err == nil || err.Timeout {
			t.Errorf("rank %d: want heartbeat-announced failure, got %v", im.Rank(), err)
		}
	})
	fails := w.Failures()
	if len(fails) != 1 || fails[0].Rank != victim || fails[0].Cause != CauseHeartbeat {
		t.Fatalf("failures = %+v", fails)
	}
	// Detection cannot precede staleness: kill + 3 heartbeat periods.
	if fails[0].At < 350*Microsecond {
		t.Fatalf("heartbeat detection at %d, before staleness threshold", fails[0].At)
	}
}

// TestSimWaitTimeout: with no announcement to blame, a bounded wait raises
// Timeout instead of hanging (and records no failure).
func TestSimWaitTimeout(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	w.SetDetect(DetectConfig{WaitTimeout: 200 * Microsecond})
	w.Run(func(im *Image) {
		if im.Rank() != 0 {
			return
		}
		fl := NewFlags(w, "never", 1)
		start := im.Now()
		err := catchFailed(func() { im.WaitFlagGE(fl, 0, 0, 1) })
		if err == nil || !err.Timeout {
			t.Fatalf("want timeout error, got %v", err)
		}
		if im.Now()-start != 200*Microsecond {
			t.Errorf("timed out after %d, want exactly the configured timeout", im.Now()-start)
		}
	})
	if len(w.Failures()) != 0 {
		t.Fatalf("timeout recorded a failure: %+v", w.Failures())
	}
}

// TestSimLinkDropLosesNotifyButDrainsQuiet: a certain-drop link loses the
// notify (the waiter times out) while the sender's Quiet still completes —
// the sender cannot tell its message evaporated.
func TestSimLinkDropLosesNotifyButDrainsQuiet(t *testing.T) {
	w := newTestWorld(t, 2, 1) // rank 0 on node 0, rank 1 on node 1
	w.SetDetect(DetectConfig{WaitTimeout: 500 * Microsecond})
	if err := w.InjectFaults(&FaultPlan{Seed: 7, Events: []FaultEvent{
		{At: 0, Kind: FaultLinkDrop, Node: 0, Node2: 1, Factor: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(im *Image) {
		fl := NewFlags(w, "dropped", 1)
		if im.Rank() == 0 {
			im.NotifyAdd(fl, 1, 0, 1, ViaConduit)
			im.Quiet() // must drain even though the message was dropped
			return
		}
		err := catchFailed(func() { im.WaitFlagGE(fl, 1, 0, 1) })
		if err == nil || !err.Timeout {
			t.Errorf("rank 1: want timeout on dropped notify, got %v", err)
		}
	})
}

// TestSimNICDegradeSlowsTraffic: degrading a node's NIC makes the same
// exchange take longer than on a healthy machine — and, as a table over every
// inter-node operation, each modeled fault reaches each leg the operation is
// made of: a degraded NIC at either end slows it, a delayed link makes it later
// by at least the delay when it crosses that link (and leaves it alone when it
// does not), a dropped leg ends in a timeout status at whoever observes the
// operation's completion, never in a hang. The healthy times are pinned to the
// nanosecond: a Get or an atomic is two routed legs and nothing else.
func TestSimNICDegradeSlowsTraffic(t *testing.T) {
	exchange := func(w *World) Time {
		return w.Run(func(im *Image) {
			fl := NewFlags(w, "x", w.NumImages())
			other := 1 - im.Rank()
			for ep := int64(1); ep <= 20; ep++ {
				im.NotifyAdd(fl, other, other, 1, ViaConduit)
				im.WaitFlagGE(fl, im.Rank(), im.Rank(), ep)
			}
		})
	}
	base := exchange(newTestWorld(t, 2, 1))
	for _, factor := range []float64{8, maxNICFactor} {
		w := newTestWorld(t, 2, 1)
		if err := w.InjectFaults(&FaultPlan{Events: []FaultEvent{
			{At: 0, Kind: FaultNICDegrade, Node: 0, Factor: factor},
		}}); err != nil {
			t.Fatal(err)
		}
		if slow := exchange(w); slow <= base {
			t.Fatalf("NIC degraded %gx finished in %d <= healthy %d", factor, slow, base)
		}
	}

	// Rank 0 (node 0) acts on rank 1 (node 1) with 8 KiB payloads. back: the
	// operation has a leg on link 1->0 too. observed: somebody waits for the
	// completion, so a lost leg is seen (a put+quiet drains regardless: the
	// sender cannot tell its message evaporated).
	const delay, timeout = 50 * Microsecond, 500 * Microsecond
	ops := []struct {
		name           string
		healthy        Time
		back, observed bool
		rank0          func(im *Image, co *Coarray[float64], fl *Flags, buf []float64)
	}{
		{"put+quiet", 9551, false, false, func(im *Image, co *Coarray[float64], fl *Flags, buf []float64) {
			Put(im, co, 1, 0, buf, ViaConduit)
			im.Quiet()
		}},
		{"put+flag", 10256, false, true, func(im *Image, co *Coarray[float64], fl *Flags, buf []float64) {
			PutThenNotify(im, co, 1, 0, buf, fl, 0, 1, ViaConduit)
		}},
		{"notify", 3705, false, true, func(im *Image, co *Coarray[float64], fl *Flags, buf []float64) {
			im.NotifyAdd(fl, 1, 0, 1, ViaConduit)
		}},
		{"get", 12651, true, true, func(im *Image, co *Coarray[float64], fl *Flags, buf []float64) {
			Get(im, co, 1, 0, buf)
		}},
		{"fetch-add", 6810, true, true, func(im *Image, co *Coarray[float64], fl *Flags, buf []float64) {
			im.FetchAddFlag(fl, 1, 1, 1)
		}},
		{"cas", 6816, true, true, func(im *Image, co *Coarray[float64], fl *Flags, buf []float64) {
			im.CompareAndSwapFlag(fl, 1, 1, 0, 1)
		}},
	}
	run := func(rank0 func(*Image, *Coarray[float64], *Flags, []float64), waitFlag bool, events ...FaultEvent) (Time, *FailedImageError) {
		w := newTestWorld(t, 2, 1)
		w.SetDetect(DetectConfig{WaitTimeout: timeout})
		if err := w.InjectFaults(&FaultPlan{Seed: 1, Events: events}); err != nil {
			t.Fatal(err)
		}
		var failed *FailedImageError
		end := w.Run(func(im *Image) {
			co := NewCoarray[float64](w, "legs", 1024)
			fl := NewFlags(w, "legs", 2)
			im.Sleep(Microsecond) // the faults, scheduled at 0, are in force
			err := catchFailed(func() {
				if im.Rank() == 0 {
					rank0(im, co, fl, make([]float64, 1024))
				} else if waitFlag {
					im.WaitFlagGE(fl, 1, 0, 1)
				}
			})
			if err != nil {
				failed = err
			}
		})
		return end - Microsecond, failed
	}
	for _, op := range ops {
		waitFlag := op.observed && !op.back // completion is the flag landing on rank 1
		healthy, err := run(op.rank0, waitFlag)
		if err != nil || healthy != op.healthy {
			t.Errorf("%s healthy: %d ns (%v), want %d", op.name, healthy, err, op.healthy)
		}
		for node := 0; node < 2; node++ {
			slow, err := run(op.rank0, waitFlag, FaultEvent{Kind: FaultNICDegrade, Node: node, Factor: 8})
			if err != nil || slow <= healthy {
				t.Errorf("%s with node %d's NIC degraded 8x: %d ns (%v), healthy %d", op.name, node, slow, err, healthy)
			}
		}
		for _, link := range [][2]int{{0, 1}, {1, 0}} {
			crosses := link[0] == 0 || op.back
			late, err := run(op.rank0, waitFlag, FaultEvent{Kind: FaultLinkDelay, Node: link[0], Node2: link[1], Delay: delay})
			if err != nil || crosses && late < healthy+delay || !crosses && late != healthy {
				t.Errorf("%s with +%d ns on link %v (crossed: %v): %d ns (%v), healthy %d", op.name, delay, link, crosses, late, err, healthy)
			}
			end, err := run(op.rank0, waitFlag, FaultEvent{Kind: FaultLinkDrop, Node: link[0], Node2: link[1], Factor: 1})
			switch lost := crosses && op.observed; {
			case lost && (err == nil || !err.Timeout):
				t.Errorf("%s with link %v dropping: ended at %d with %v, want a timeout status", op.name, link, end, err)
			case !lost && (err != nil || end != healthy):
				t.Errorf("%s with link %v dropping (crossed: %v): %d ns (%v), healthy %d", op.name, link, crosses, end, err, healthy)
			}
		}
	}
}

// TestZeroDetectConfigAddsNoEvents is the timing-neutrality guarantee: a
// world with the zero DetectConfig (and containment on) must schedule
// exactly the same simulation events as a world with no fault calls at all,
// finishing at the identical simulated time.
func TestZeroDetectConfigAddsNoEvents(t *testing.T) {
	run := func(configure func(w *World)) (Time, int64) {
		w := newTestWorld(t, 2, 4)
		configure(w)
		end := w.Run(func(im *Image) {
			fl := NewFlags(w, "ring", w.NumImages())
			next := (im.Rank() + 1) % w.NumImages()
			for ep := int64(1); ep <= 10; ep++ {
				im.NotifyAdd(fl, next, next, 1, ViaAuto)
				im.WaitFlagGE(fl, im.Rank(), im.Rank(), ep)
			}
		})
		env := w.sim.env
		return end, env.Events()
	}
	baseEnd, baseEvents := run(func(w *World) {})
	zeroEnd, zeroEvents := run(func(w *World) {
		w.ContainPanics()
		w.SetDetect(DetectConfig{})
	})
	if baseEnd != zeroEnd || baseEvents != zeroEvents {
		t.Fatalf("zero DetectConfig changed the simulation: end %d/%d events %d/%d",
			baseEnd, zeroEnd, baseEvents, zeroEvents)
	}
	// Sanity: a *non-zero* timeout on the same program leaves timing alone
	// too (all cancelable timers are canceled without advancing the clock),
	// proving the cancelable-event machinery is free when unused.
	toEnd, _ := run(func(w *World) { w.SetDetect(DetectConfig{WaitTimeout: Second}) })
	if toEnd != baseEnd {
		t.Fatalf("unused wait timeouts stretched the run: end %d, want %d", toEnd, baseEnd)
	}
}

// TestInjectFaultsRefusesFreeMessages: a NIC factor that is NaN, infinite or
// too large to keep an occupancy inside a Time used to pass (NaN < 1 is false)
// and made every message through that NIC free; a NaN drop probability passed
// too, an At+Duration that wraps scheduled the repair before the fault, and a
// Delay that wraps delivered early; and of two windows open at once on one NIC
// the first repair ended the second fault. Each is refused by event index.
func TestInjectFaultsRefusesFreeMessages(t *testing.T) {
	ok := FaultEvent{Kind: FaultNICDegrade, Node: 1, Factor: 8, Duration: Microsecond}
	for _, bad := range []FaultEvent{
		{Kind: FaultNICDegrade, Node: 1, Factor: 2, At: Microsecond - 1},
		{Kind: FaultNICDegrade, Factor: math.NaN()},
		{Kind: FaultNICDegrade, Factor: math.Inf(1)},
		{Kind: FaultNICDegrade, Factor: math.Inf(-1)},
		{Kind: FaultNICDegrade, Factor: 1e300},
		{Kind: FaultLinkDrop, Node2: 1, Factor: math.NaN()},
		{Kind: FaultNICDegrade, Factor: 2, At: math.MaxInt64, Duration: 1},
		{Kind: FaultLinkDelay, Node2: 1, At: 1, Duration: math.MaxInt64},
		{Kind: FaultLinkDelay, Node2: 1, Delay: math.MaxInt64},
	} {
		err := newTestWorld(t, 2, 2).InjectFaults(&FaultPlan{Events: []FaultEvent{ok, bad}})
		if err == nil || !strings.Contains(err.Error(), "fault event 1 ") {
			t.Errorf("%+v: InjectFaults = %v, want fault event 1 refused", bad, err)
		}
	}
}

// FuzzInjectFaults: any one-event plan is validated without a panic and
// accepted exactly when the event is well-formed — targets inside the 2x2
// world, a factor the kind reads finite and in range, times in [0, MaxInt64/4].
// A well-formed NIC or link fault followed by the same fault delay ns later is
// accepted exactly when the first has been repaired by then.
func FuzzInjectFaults(f *testing.F) {
	for kind := FaultKillImage; kind <= FaultLinkDrop; kind++ {
		f.Add(int(kind), 1, 1, 0, 1.0, int64(2000), int64(500), int64(0))
	}
	f.Add(int(FaultNICDegrade), 0, 0, 0, math.NaN(), int64(0), int64(0), int64(0))
	f.Add(int(FaultNICDegrade), 0, 0, 0, math.Inf(1), int64(0), int64(0), int64(0))
	f.Add(int(FaultNICDegrade), 0, 1, 0, 1e300, int64(0), int64(0), int64(0))
	f.Add(int(FaultLinkDrop), 0, 0, 1, math.NaN(), int64(0), int64(0), int64(0))
	f.Add(int(FaultLinkDrop), 0, 0, 1, 0.5, int64(0), int64(0), int64(1000))
	f.Add(int(FaultLinkDelay), 0, 1, 0, math.NaN(), int64(1), int64(7), int64(math.MaxInt64))
	f.Add(int(FaultKillNode), 0, 2, 0, 0.0, int64(0), int64(0), int64(0))
	f.Add(int(FaultKillImage), 4, 0, 0, 0.0, int64(-1), int64(0), int64(0))
	f.Add(99, 0, 0, 0, 1.0, int64(0), int64(0), int64(0))
	f.Add(int(FaultLinkDelay), 0, 0, 1, 0.0, int64(10), int64(499), int64(500))
	f.Fuzz(func(t *testing.T, kind, image, node, node2 int, factor float64, at, delay, duration int64) {
		ev := FaultEvent{Kind: FaultKind(kind), Image: image, Node: node, Node2: node2, Factor: factor, At: at, Delay: delay, Duration: duration}
		onNode := func(n int) bool { return n >= 0 && n < 2 }
		finite := !math.IsNaN(factor) && !math.IsInf(factor, 0)
		var want bool
		switch ev.Kind {
		case FaultKillImage:
			want = image >= 0 && image < 4
		case FaultKillNode:
			want = onNode(node)
		case FaultNICDegrade:
			want = onNode(node) && finite && factor >= 1 && factor <= 1e6
		case FaultLinkDelay:
			want = onNode(node) && onNode(node2)
		case FaultLinkDrop:
			want = onNode(node) && onNode(node2) && finite && factor >= 0 && factor <= 1
		}
		for _, d := range []int64{at, delay, duration} {
			want = want && d >= 0 && d <= math.MaxInt64/4
		}
		err := newTestWorld(t, 2, 2).InjectFaults(&FaultPlan{Events: []FaultEvent{ev}})
		if (err == nil) != want {
			t.Fatalf("InjectFaults(%+v) = %v, want accepted = %v", ev, err, want)
		}
		again := ev
		again.At += delay
		if want && again.At <= math.MaxInt64/4 {
			kill := ev.Kind == FaultKillImage || ev.Kind == FaultKillNode
			want = kill || duration > 0 && delay >= duration
			err := newTestWorld(t, 2, 2).InjectFaults(&FaultPlan{Events: []FaultEvent{ev, again}})
			if (err == nil) != want || !want && !strings.Contains(err.Error(), "fault event 1 overlaps event 0") {
				t.Fatalf("InjectFaults(%+v, then again %d ns later) = %v, want accepted = %v", ev, delay, err, want)
			}
		}
	})
}

package pgas

// Native-backend fault tests: the same failed-image semantics the sim tests
// pin, but on real goroutines with wall-clock fault timers. Run with -race —
// announcements, heartbeat stampers and kill timers all cross goroutines
// here. Wall-clock timings are kept loose: the assertions are about
// semantics (who observes what), never about how long detection took.

import (
	"slices"
	"testing"
	"time"
)

// TestNativeKillInterruptsBlockedWait: survivors blocked on the victim's
// flag observe the kill announcement instead of hanging; the victim's own
// goroutine is unwound.
func TestNativeKillInterruptsBlockedWait(t *testing.T) {
	w := newNativeTestWorld(t, 2, 2)
	const victim = 3
	if err := w.InjectFaults(&FaultPlan{Events: []FaultEvent{
		{At: (2 * time.Millisecond).Nanoseconds(), Kind: FaultKillImage, Image: victim},
	}}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(im *Image) {
		fl := NewFlags(w, "never", 1)
		if im.Rank() == victim {
			// Block forever on a flag nobody sets; the kill unwinds this.
			im.WaitFlagGE(fl, im.Rank(), 0, 1)
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
	})
	fails := w.Failures()
	if len(fails) != 1 || fails[0].Rank != victim || fails[0].Cause != CauseKilled {
		t.Fatalf("failures = %+v", fails)
	}
}

// TestNativeKillInterruptsLaterWait: the announcement must also fail waits
// entered after it (the image was busy when the victim died).
func TestNativeKillInterruptsLaterWait(t *testing.T) {
	w := newNativeTestWorld(t, 2, 2)
	const victim = 0
	if err := w.InjectFaults(&FaultPlan{Events: []FaultEvent{
		{At: (1 * time.Millisecond).Nanoseconds(), Kind: FaultKillImage, Image: victim},
	}}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(im *Image) {
		fl := NewFlags(w, "never", 1)
		if im.Rank() == victim {
			im.WaitFlagGE(fl, im.Rank(), 0, 1) // unwound by the kill
			return
		}
		im.AwaitFailedImages(1) // failure is announced before we ever wait
		if err := catchFailed(func() { im.WaitFlagGE(fl, im.Rank(), 0, 1) }); err == nil {
			t.Errorf("rank %d: wait entered after the announcement hung or completed", im.Rank())
		}
	})
}

// TestNativePanicContained: a panicking image is recorded (with its panic
// value) and announced instead of crashing the process.
func TestNativePanicContained(t *testing.T) {
	w := newNativeTestWorld(t, 1, 4)
	w.ContainPanics()
	w.Run(func(im *Image) {
		fl := NewFlags(w, "never", 1)
		if im.Rank() == 2 {
			panic("native-boom")
		}
		if err := catchFailed(func() { im.WaitFlagGE(fl, im.Rank(), 0, 1) }); err == nil {
			t.Errorf("rank %d did not observe the panic", im.Rank())
		}
	})
	fails := w.Failures()
	if len(fails) != 1 || fails[0].Rank != 2 || fails[0].Cause != CausePanic || fails[0].PanicValue != "native-boom" {
		t.Fatalf("failures = %+v", fails)
	}
}

// TestNativeSilentKillHeartbeatDetection: with announcements suppressed, only
// the heartbeat monitor can out the death. The liveness contract, which holds
// however the host stalls: the victim is announced by heartbeat, every
// survivor's wait ends with a non-timeout failure, nothing hangs. Who exactly
// is announced when is TestSweepStale's, off the clock.
func TestNativeSilentKillHeartbeatDetection(t *testing.T) {
	w := newNativeTestWorld(t, 2, 2)
	w.SetDetect(DetectConfig{Heartbeat: (10 * time.Millisecond).Nanoseconds()})
	const victim = 1
	if err := w.InjectFaults(&FaultPlan{Events: []FaultEvent{
		{At: (1 * time.Millisecond).Nanoseconds(), Kind: FaultKillImage, Image: victim, Silent: true},
	}}); err != nil {
		t.Fatal(err)
	}
	runOrHang(t, w, 30*time.Second, func(im *Image) {
		fl := NewFlags(w, "never", 1)
		if im.Rank() == victim {
			im.WaitFlagGE(fl, im.Rank(), 0, 1)
			return
		}
		err := catchFailed(func() { im.WaitFlagGE(fl, im.Rank(), 0, 1) })
		if err == nil || err.Timeout {
			t.Errorf("rank %d: want heartbeat-announced failure, got %v", im.Rank(), err)
		}
	})
	announced := false
	for _, f := range w.Failures() {
		if f.Rank == victim {
			announced = f.Cause == CauseHeartbeat
		}
	}
	if !announced {
		t.Fatalf("victim %d not announced by heartbeat: %+v", victim, w.Failures())
	}
}

// TestSweepStale: the failure detector both backends run every heartbeat
// period is a function of the stamps and the time it is handed, so who gets
// announced is pinned here with both fed by hand: no clock, no goroutine.
func TestSweepStale(t *testing.T) {
	const h = 10 // staleness threshold: 3 periods
	for _, c := range []struct {
		name         string
		stamps       []int64
		done, failed []int
		now          int64
		announce     []int
		watching     bool
	}{
		{name: "all fresh", stamps: []int64{100, 95, 71, 70}, now: 100, watching: true},
		{name: "exactly the threshold is not stale", stamps: []int64{100, 70, 100, 100}, now: 100, watching: true},
		{name: "one stale", stamps: []int64{100, 69, 100, 100}, now: 100, announce: []int{1}, watching: true},
		{name: "finished and failed images are not watched", stamps: []int64{100, 0, 0, 100}, done: []int{1}, failed: []int{2}, now: 100, watching: true},
		{name: "everyone stale", stamps: []int64{0, 0, 0, 0}, now: 31, announce: []int{0, 1, 2, 3}},
		{name: "all done or failed", stamps: []int64{0, 0, 0, 0}, done: []int{0, 1}, failed: []int{2, 3}, now: 1000},
	} {
		w := newNativeTestWorld(t, 2, 2)
		w.SetDetect(DetectConfig{Heartbeat: h})
		fc := w.faults
		copy(fc.hbStamp, c.stamps)
		for _, r := range c.done {
			fc.markDone(r)
		}
		for _, r := range c.failed {
			fc.announce(r, 0, CauseKilled, nil)
		}
		before := len(w.Failures())
		if got := fc.sweepStale(c.now); got != c.watching {
			t.Errorf("%s: watching = %v, want %v", c.name, got, c.watching)
		}
		var got []int
		for _, f := range w.Failures()[before:] {
			if f.Cause != CauseHeartbeat || f.At != c.now {
				t.Errorf("%s: announced %+v, want cause heartbeat at %d", c.name, f, c.now)
			}
			got = append(got, f.Rank)
		}
		if !slices.Equal(got, c.announce) {
			t.Errorf("%s: announced %v, want %v", c.name, got, c.announce)
		}
	}
}

// TestNativeWaitTimeout: a bounded wait with nothing to blame raises
// Timeout; no failure is recorded.
func TestNativeWaitTimeout(t *testing.T) {
	w := newNativeTestWorld(t, 1, 2)
	w.SetDetect(DetectConfig{WaitTimeout: (3 * time.Millisecond).Nanoseconds()})
	w.Run(func(im *Image) {
		if im.Rank() != 0 {
			return
		}
		fl := NewFlags(w, "never", 1)
		err := catchFailed(func() { im.WaitFlagGE(fl, 0, 0, 1) })
		if err == nil || !err.Timeout {
			t.Errorf("want timeout error, got %v", err)
		} else if err.Op != "flag never[0][0]>=1" {
			// Built only now that the wait failed; the text is the one the
			// sim backend reports for the same wait.
			t.Errorf("timed-out operation reads %q", err.Op)
		}
	})
	if len(w.Failures()) != 0 {
		t.Fatalf("timeout recorded a failure: %+v", w.Failures())
	}
}

package pgas

// Native-backend fault tests: the same failed-image semantics the sim tests
// pin, but on real goroutines with wall-clock fault timers. Run with -race —
// announcements, heartbeat stampers and kill timers all cross goroutines
// here. Wall-clock timings are kept loose: the assertions are about
// semantics (who observes what), never about how long detection took.

import (
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

// TestNativeSilentKillHeartbeatDetection: with announcements suppressed,
// only the heartbeat monitor can out the death.
func TestNativeSilentKillHeartbeatDetection(t *testing.T) {
	w := newNativeTestWorld(t, 2, 2)
	// A period long enough that a short host stall does not make the live
	// images look stale: at 2 ms (stale after 6) one run in a few hundred under
	// -race, here and at the parent commit alike, had the monitor wake from a
	// stall ahead of the stampers and announce everybody.
	w.SetDetect(DetectConfig{Heartbeat: (10 * time.Millisecond).Nanoseconds()})
	const victim = 1
	if err := w.InjectFaults(&FaultPlan{Events: []FaultEvent{
		{At: (1 * time.Millisecond).Nanoseconds(), Kind: FaultKillImage, Image: victim, Silent: true},
	}}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(im *Image) {
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
	fails := w.Failures()
	if len(fails) != 1 || fails[0].Rank != victim || fails[0].Cause != CauseHeartbeat {
		t.Fatalf("failures = %+v", fails)
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

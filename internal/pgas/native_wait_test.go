package pgas

// Tests of the native wait protocol (nativeCell): a satisfied wait returns on
// an atomic load, a waiter registers and re-checks before it parks, and a
// waker skips the lock and the broadcast when nobody is registered. What can
// go wrong is a lost wake-up — a hang — so these run the racing pairs many
// times under their own deadline. Run with -race.

import (
	"runtime"
	"testing"
	"time"
)

// runOrHang runs the world in body's images and fails the test if it has not
// finished within limit: a lost wake-up shows as a failure in seconds, not as
// the test binary's timeout.
func runOrHang(t *testing.T, w *World, limit time.Duration, body func(*Image)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(body)
	}()
	select {
	case <-done:
	//caflint:allow wallclock -- native-backend test: a real deadline for real goroutines
	case <-time.After(limit):
		buf := make([]byte, 1<<16)
		t.Fatalf("world still running after %v: lost wake-up?\n%s", limit, buf[:runtime.Stack(buf, true)])
	}
}

// TestNativeNoLostWakeup: ping-pong (each notify races the peer's
// registration for its next wait) and an 8→1 fan-in (eight notifies race one
// registration, then one release races eight), at one, two and four Ps.
func TestNativeNoLostWakeup(t *testing.T) {
	const rounds = 20000
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

			w := newNativeTestWorld(t, 1, 2)
			fl := NewFlags(w, "pingpong", 1)
			runOrHang(t, w, 30*time.Second, func(im *Image) {
				me, peer := im.Rank(), 1-im.Rank()
				for i := int64(1); i <= rounds; i++ {
					if me == 0 {
						im.NotifyAdd(fl, peer, 0, 1, ViaAuto)
						im.WaitFlagGE(fl, me, 0, i)
					} else {
						im.WaitFlagGE(fl, me, 0, i)
						im.NotifyAdd(fl, peer, 0, 1, ViaAuto)
					}
				}
			})
			for r := 0; r < 2; r++ {
				if got := fl.Peek(r, 0); got != rounds {
					t.Errorf("GOMAXPROCS %d: ping-pong flag of image %d ended at %d, want %d", procs, r, got, rounds)
				}
			}

			w = newNativeTestWorld(t, 1, 9)
			fan := NewFlags(w, "fanin", 2)
			const senders = 8
			runOrHang(t, w, 30*time.Second, func(im *Image) {
				for i := int64(1); i <= rounds; i++ {
					if im.Rank() == 0 {
						im.WaitFlagGE(fan, 0, 0, senders*i)
						for r := 1; r <= senders; r++ {
							im.NotifyAdd(fan, r, 1, 1, ViaAuto)
						}
					} else {
						im.NotifyAdd(fan, 0, 0, 1, ViaAuto)
						im.WaitFlagGE(fan, im.Rank(), 1, i)
					}
				}
			})
			if got := fan.Peek(0, 0); got != senders*rounds {
				t.Errorf("GOMAXPROCS %d: fan-in flag ended at %d, want %d", procs, got, senders*rounds)
			}
		}()
	}
}

// TestNativeKilledImageUnwindsOnSatisfiedWait: the kill check comes before
// everything, so a dead image unwinds at a wait even when the flag is already
// there and the wait would otherwise return on its fast path.
func TestNativeKilledImageUnwindsOnSatisfiedWait(t *testing.T) {
	w := newNativeTestWorld(t, 1, 2)
	fl := NewFlags(w, "already", 1)
	w.Run(func(im *Image) {
		if im.Rank() != 0 {
			return
		}
		im.SetLocal(fl, 0, 1)
		im.WaitFlagGE(fl, 0, 0, 1) // alive: returns
		w.KillImage(0)
		im.WaitFlagGE(fl, 0, 0, 1)
		t.Errorf("killed image returned from a satisfied wait")
	})
	if fails := w.Failures(); len(fails) != 1 || fails[0].Rank != 0 || fails[0].Cause != CauseKilled {
		t.Fatalf("failures = %+v", fails)
	}
}

// TestNativeSatisfiedWaitIgnoresUnackedAnnouncement pins the rule the fast
// and the parking path share: failure announcements (and the wait timeout)
// are observed only by a wait that does not find its flag there. With an
// announcement image 0 never acknowledged pending, a satisfied wait returns;
// an unsatisfied one raises at once.
func TestNativeSatisfiedWaitIgnoresUnackedAnnouncement(t *testing.T) {
	w := newNativeTestWorld(t, 1, 2)
	w.SetDetect(DetectConfig{WaitTimeout: (50 * time.Millisecond).Nanoseconds()})
	fl := NewFlags(w, "already", 1)
	w.Run(func(im *Image) {
		if im.Rank() != 0 {
			im.WaitFlagGE(fl, 1, 0, 1) // unwound by the kill
			return
		}
		im.SetLocal(fl, 0, 1)
		w.KillImage(1)
		im.AwaitFailedImages(1)
		if err := catchFailed(func() { im.WaitFlagGE(fl, 0, 0, 1) }); err != nil {
			t.Errorf("satisfied wait observed the unacknowledged announcement: %v", err)
		}
		err := catchFailed(func() { im.WaitFlagGE(fl, 0, 0, 2) })
		if err == nil || err.Timeout || len(err.Failed) != 1 || err.Failed[0] != 1 {
			t.Errorf("unsatisfied wait: want the announcement of image 1, got %v", err)
		}
	})
}

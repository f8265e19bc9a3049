package sim

// Kernel tests for forced process termination (Kill) and cancelable events
// (AfterCancelable) — the two primitives the fault layer is built on.

import (
	"testing"
)

// TestKillUnwindsBlockedProc: a blocked process is force-resumed and unwinds
// with Killed; the simulation completes without deadlock and without a
// re-raised panic.
func TestKillUnwindsBlockedProc(t *testing.T) {
	e := NewEnv()
	cleanup := false
	victim := e.Spawn("victim", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				if k, ok := r.(Killed); !ok || k.Proc != "victim" {
					t.Errorf("unwound with %v", r)
				}
				cleanup = true
				panic(r) // layers that don't own teardown must re-raise
			}
		}()
		p.Sleep(Second)
		t.Error("victim survived")
	})
	e.After(10*Microsecond, func() { victim.Kill() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !cleanup {
		t.Fatal("victim's deferred cleanup never ran")
	}
	if victim.Alive() {
		t.Fatal("killed proc still alive")
	}
}

// TestKillBeforeFirstRun: killing a process that has not started yet
// terminates it without ever executing its body.
func TestKillBeforeFirstRun(t *testing.T) {
	e := NewEnv()
	ran := false
	p := e.Spawn("early", func(p *Proc) { ran = true })
	p.Kill()
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("killed-before-start proc ran its body")
	}
}

// TestKillFinishedProcIsNoop: killing a process after it completed does
// nothing.
func TestKillFinishedProcIsNoop(t *testing.T) {
	e := NewEnv()
	p := e.Spawn("quick", func(p *Proc) {})
	e.After(Microsecond, func() {
		if p.Alive() {
			t.Error("proc still alive after returning")
		}
		p.Kill() // must not panic or wedge
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestCondWakeSkipsKilledWaiters: a killed process parked on a condition
// does not absorb a wake another waiter needs.
func TestCondWakeSkipsKilledWaiters(t *testing.T) {
	e := NewEnv()
	var c Cond
	fired := false
	doomed := e.Spawn("doomed", func(p *Proc) {
		c.Wait(p, "doomed-wait", func() bool { return fired })
		t.Error("doomed proc woke normally")
	})
	e.Spawn("survivor", func(p *Proc) {
		c.Wait(p, "survivor-wait", func() bool { return fired })
		if !fired {
			t.Error("survivor woke before the predicate held")
		}
	})
	e.After(5*Microsecond, func() { doomed.Kill() })
	e.After(10*Microsecond, func() {
		fired = true
		c.Wake(e)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestAfterCancelableSkipped: a canceled event neither runs nor advances
// the clock nor counts toward Events — it is as if it was never scheduled.
func TestAfterCancelableSkipped(t *testing.T) {
	e := NewEnv()
	fired := false
	cancel := e.AfterCancelable(100*Microsecond, func() { fired = true })
	e.After(Microsecond, func() { cancel() })
	base := NewEnv()
	base.After(Microsecond, func() {})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := base.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event ran")
	}
	if e.Now() != base.Now() {
		t.Fatalf("canceled event advanced the clock to %d (want %d)", e.Now(), base.Now())
	}
	if e.Events() != base.Events() {
		t.Fatalf("canceled event counted: %d events, want %d", e.Events(), base.Events())
	}
}

// TestAfterCancelableFiresUncanceled: without cancellation it is an
// ordinary timer.
func TestAfterCancelableFiresUncanceled(t *testing.T) {
	e := NewEnv()
	fired := Time(0)
	e.AfterCancelable(7*Microsecond, func() { fired = e.Now() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 7*Microsecond {
		t.Fatalf("fired at %d, want 7us", fired)
	}
}

package sim

// Kernel tests for what the coroutine kernel adds to the contract: a process
// may block from inside a nested coroutine, every way of killing a process
// unwinds it, panics surface on the Run caller whichever stack raised them,
// and no goroutine outlives a Run that ended the simulation.

import (
	"fmt"
	"iter"
	"runtime"
	"testing"
)

// TestBlockFromNestedCoroutine: a split-phase body (pgas/progress.go) runs on
// its own iter.Pull coroutine inside the image's process and sleeps and waits
// from there, so the process's yield is called on a different goroutine than
// the one the process started on. Two such processes interleave, and a kill
// unwinds through the nested coroutine.
func TestBlockFromNestedCoroutine(t *testing.T) {
	e := NewEnv()
	var c Cond
	flag := 0
	var log []string
	body := func(name string, killed *bool) func(p *Proc) {
		return func(p *Proc) {
			defer func() { *killed = recover() != nil; panic(Killed{}) }()
			next, stop := iter.Pull(func(yield func(int) bool) {
				for i := 1; ; i++ {
					p.Sleep(10)
					c.Wait(p, "flag", func() bool { return flag >= i })
					log = append(log, fmt.Sprintf("%s%d@%d", name, i, p.Now()))
					if !yield(i) {
						return
					}
				}
			})
			defer stop()
			for {
				next()
				p.Sleep(1) // and from the process's own stack in between
			}
		}
	}
	var aKilled, bKilled bool
	a := e.Spawn("a", body("a", &aKilled))
	e.Spawn("b", body("b", &bKilled))
	for i := 1; i <= 3; i++ {
		e.Schedule(Time(i*100), func() { flag++; c.Wake(e) })
	}
	e.Schedule(250, a.Kill)
	err := e.Run(0)
	if want := "[a1@100 b1@100 a2@200 b2@200 b3@300]"; fmt.Sprint(log) != want {
		t.Fatalf("log %v, want %v", log, want)
	}
	if de, ok := err.(*DeadlockError); !ok || fmt.Sprint(de.Blocked) != "[b: flag]" {
		t.Fatalf("err = %v, want b deadlocked on flag", err)
	}
	if !aKilled || !bKilled {
		t.Fatalf("unwound: a (killed) %v, b (left parked by the deadlock) %v; want both", aKilled, bKilled)
	}
}

// TestKillEveryBlockingState: a kill unwinds a process that never started,
// one asleep, one blocked on a condition and one advancing the clock alone
// (the in-place Sleep path), each at the kill's timestamp.
func TestKillEveryBlockingState(t *testing.T) {
	e := NewEnv()
	var c Cond
	unwoundAt := map[string]Time{}
	spawn := func(name string, body func(p *Proc)) *Proc {
		return e.Spawn(name, func(p *Proc) {
			defer func() { unwoundAt[name] = p.Now() }()
			body(p)
		})
	}
	victims := []*Proc{
		spawn("sleeping", func(p *Proc) { p.Sleep(Second) }),
		spawn("waiting", func(p *Proc) { c.Wait(p, "never", func() bool { return false }) }),
		spawn("advancing", func(p *Proc) {
			for {
				p.Sleep(7)
			}
		}),
	}
	e.Schedule(1000, func() {
		victims = append(victims, spawn("unstarted", func(p *Proc) { t.Error("killed-before-start proc ran its body") }))
		for _, v := range victims {
			v.Kill()
		}
	})
	e.Schedule(2000, func() {}) // the advancing process would run on to here
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Second {
		t.Fatalf("end time %d, want the sleeper's stale wake-up at %d", e.Now(), Second)
	}
	for _, v := range victims {
		if at, ok := unwoundAt[v.Name]; v.Name != "unstarted" && (!ok || at != 1000) {
			t.Errorf("%s: unwound at %d (%v), want 1000", v.Name, at, ok)
		}
		if v.Alive() || !v.done {
			t.Errorf("%s still alive", v.Name)
		}
	}
}

// TestPanicsReachRunCaller: a panic in a process, and one in a callback event
// that a blocking process's stack happened to execute, both re-raise on the
// goroutine that called Run.
func TestPanicsReachRunCaller(t *testing.T) {
	for _, where := range []string{"process", "event on a process stack"} {
		e := NewEnv()
		e.Spawn("p", func(p *Proc) {
			if where == "process" {
				p.Sleep(10)
				panic("boom")
			}
			e.Schedule(10, func() { panic("boom") })
			p.Sleep(20) // runs the event loop, and the event, on this stack
		})
		e.Spawn("bystander", func(p *Proc) { p.Sleep(Second) })
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("%s: recovered %v on the Run caller, want boom", where, r)
				}
			}()
			_ = e.Run(0)
		}()
		if e.Now() != 10 {
			t.Errorf("%s: clock %d after the panic, want 10", where, e.Now())
		}
	}
}

// TestNoGoroutineOutlivesTheSimulation: the goroutine count is back at its
// pre-run value after a Run that completed, one that deadlocked and one that
// re-raised a panic; a Run stopped by its limit leaves every process parked.
func TestNoGoroutineOutlivesTheSimulation(t *testing.T) {
	base := runtime.NumGoroutine()
	build := func() *Env {
		e := NewEnv()
		for i := 0; i < 20; i++ {
			e.Spawn(fmt.Sprintf("s%d", i), func(p *Proc) { p.Sleep(Time(100 + i)) })
		}
		return e
	}
	check := func(what string) {
		t.Helper()
		if got := runtime.NumGoroutine() - base; got > 0 {
			t.Fatalf("after %s: %d goroutines over the baseline", what, got)
		}
	}

	e := build()
	if err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	if len(e.live) != 20 || e.live[0].next == nil {
		t.Fatalf("after a Run stopped by its limit: %d processes parked, want 20", len(e.live))
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	check("a completed Run")

	e = build()
	var c Cond
	for i := 0; i < 5; i++ {
		e.Spawn("stuck", func(p *Proc) {
			defer p.Sleep(1) // blocks again while it is unwound
			p.Sleep(Time(i))
			c.Wait(p, "never", func() bool { return false })
		})
	}
	e.Schedule(500, func() { e.Spawn("late", func(p *Proc) { c.Wait(p, "never", func() bool { return false }) }) })
	if _, ok := e.Run(0).(*DeadlockError); !ok {
		t.Fatal("no deadlock reported")
	}
	check("a deadlocked Run")
	events := e.Events()
	if err := e.Run(0); err != nil || e.Events() != events {
		t.Fatalf("Run after a deadlock: %v, %d more events; want the Env finished, nothing left queued", err, e.Events()-events)
	}

	e = build()
	e.Schedule(50, func() { e.Spawn("unstarted", func(p *Proc) {}); panic("boom") })
	func() {
		defer func() { recover() }()
		_ = e.Run(0)
	}()
	check("a Run that re-raised a panic")
}

package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("new env clock = %d, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv()
	var end Time
	e.Spawn("p", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		end = p.Now()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if end != 5*Microsecond {
		t.Fatalf("end = %d, want %d", end, 5*Microsecond)
	}
}

func TestSleepNegativeClampsToZero(t *testing.T) {
	e := NewEnv()
	var end Time
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-10)
		end = p.Now()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if end != 0 {
		t.Fatalf("end = %d, want 0", end)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEnv()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	e := NewEnv()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(42, func() { got = append(got, i) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time order = %v, want ascending", got)
		}
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	e := NewEnv()
	ran := false
	e.Schedule(100, func() {
		e.Schedule(5, func() { ran = true }) // in the past
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("past-scheduled event did not run")
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var log []string
		for _, name := range []string{"a", "b"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, fmt.Sprintf("%s%d@%d", name, i, p.Now()))
					p.Sleep(10)
				}
			})
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for trial := 0; trial < 10; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("non-deterministic length: %v vs %v", again, first)
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("non-deterministic interleaving: %v vs %v", again, first)
			}
		}
	}
}

func TestRunLimitStopsEarly(t *testing.T) {
	e := NewEnv()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	if err := e.Run(25); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %d, want 25", e.Now())
	}
}

// TestRunLimitResumesLosslessly pins the peek-before-pop behavior of Run: an
// event past the limit must stay queued, so running to a limit and then to
// completion executes every event exactly once (the event popped at the
// limit used to be dropped).
func TestRunLimitResumesLosslessly(t *testing.T) {
	e := NewEnv()
	var order []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		e.Schedule(at, func() { order = append(order, at) })
	}
	if err := e.Run(15); err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != 10 {
		t.Fatalf("after Run(15): ran %v, want [10]", order)
	}
	if e.Now() != 15 {
		t.Fatalf("clock = %d, want 15", e.Now())
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[1] != 20 || order[2] != 30 {
		t.Fatalf("after resume: ran %v, want [10 20 30]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

// TestRunLimitKeepsProcessesRunnable checks the limit interacts with
// processes: a sleeping process cut off by the limit resumes on the next Run.
func TestRunLimitKeepsProcessesRunnable(t *testing.T) {
	e := NewEnv()
	done := false
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		done = true
	})
	if err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("process finished before its wake-up event")
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("process lost its wake-up event across a limited Run")
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEnv()
	var c Cond
	e.Spawn("stuck", func(p *Proc) {
		c.Wait(p, "never", func() bool { return false })
	})
	err := e.Run(0)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck: never" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestCondImmediatePredicateDoesNotBlock(t *testing.T) {
	e := NewEnv()
	var c Cond
	done := false
	e.Spawn("p", func(p *Proc) {
		c.Wait(p, "already true", func() bool { return true })
		done = true
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("process did not complete")
	}
}

func TestCondWakeResumesSatisfiedWaiters(t *testing.T) {
	e := NewEnv()
	var c Cond
	val := 0
	var woke []string
	e.Spawn("w1", func(p *Proc) {
		c.Wait(p, "val>=1", func() bool { return val >= 1 })
		woke = append(woke, fmt.Sprintf("w1@%d", p.Now()))
	})
	e.Spawn("w2", func(p *Proc) {
		c.Wait(p, "val>=2", func() bool { return val >= 2 })
		woke = append(woke, fmt.Sprintf("w2@%d", p.Now()))
	})
	e.Schedule(100, func() { val = 1; c.Wake(e) })
	e.Schedule(200, func() { val = 2; c.Wake(e) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 2 || woke[0] != "w1@100" || woke[1] != "w2@200" {
		t.Fatalf("woke = %v", woke)
	}
}

func TestCondWakeWithNoWaitersIsNoop(t *testing.T) {
	e := NewEnv()
	var c Cond
	c.Wake(e) // must not panic
	if c.Waiting() != 0 {
		t.Fatal("phantom waiters")
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	e := NewEnv()
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	})
	_ = e.Run(0)
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("nic")
	s1 := r.Occupy(0, 100)
	s2 := r.Occupy(0, 100)
	s3 := r.Occupy(50, 100)
	if s1 != 0 || s2 != 100 || s3 != 200 {
		t.Fatalf("starts = %d,%d,%d want 0,100,200", s1, s2, s3)
	}
	if r.Uses() != 3 {
		t.Fatalf("uses = %d, want 3", r.Uses())
	}
	if r.BusyTime() != 300 {
		t.Fatalf("busy = %d, want 300", r.BusyTime())
	}
}

func TestResourceIdleGapNotCharged(t *testing.T) {
	r := NewResource("nic")
	r.Occupy(0, 10)
	start := r.Occupy(1000, 10) // arrives long after idle
	if start != 1000 {
		t.Fatalf("start = %d, want 1000", start)
	}
}

func TestResourceNegativeDurationClamped(t *testing.T) {
	r := NewResource("x")
	s := r.Occupy(5, -7)
	if s != 5 || r.FreeAt() != 5 {
		t.Fatalf("start=%d free=%d, want 5,5", s, r.FreeAt())
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Occupy(0, 100)
	r.Reset()
	if r.FreeAt() != 0 || r.BusyTime() != 0 || r.Uses() != 0 {
		t.Fatal("reset did not clear state")
	}
}

// Property: a resource admits requests FIFO with no overlap and no
// reordering, for any request pattern.
func TestResourceFIFOProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("p")
		now := Time(0)
		prevEnd := Time(0)
		for i := 0; i < int(n%50)+1; i++ {
			now += Time(rng.Intn(100))
			dur := Time(rng.Intn(100))
			start := r.Occupy(now, dur)
			if start < now || start < prevEnd {
				return false
			}
			prevEnd = start + dur
			if r.FreeAt() != prevEnd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: N processes each sleeping a pseudo-random series of durations
// always finish at the analytically expected times, independent of spawn
// order.
func TestSleepSeriesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 1
		durs := make([][]Time, n)
		want := make([]Time, n)
		for i := range durs {
			k := rng.Intn(5) + 1
			for j := 0; j < k; j++ {
				d := Time(rng.Intn(1000))
				durs[i] = append(durs[i], d)
				want[i] += d
			}
		}
		e := NewEnv()
		got := make([]Time, n)
		for i := 0; i < n; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for _, d := range durs[i] {
					p.Sleep(d)
				}
				got[i] = p.Now()
			})
		}
		if err := e.Run(0); err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcessesComplete(t *testing.T) {
	e := NewEnv()
	var finished int64
	const n = 500
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Time(p.ID % 17))
			atomic.AddInt64(&finished, 1)
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if finished != n {
		t.Fatalf("finished = %d, want %d", finished, n)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEnv()
	var at Time
	e.Schedule(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 150 {
		t.Fatalf("at = %d, want 150", at)
	}
}

func TestYieldRunsQueuedEventsFirst(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Spawn("p", func(p *Proc) {
		e.Schedule(e.Now(), func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc")
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Fatalf("order = %v", order)
	}
}

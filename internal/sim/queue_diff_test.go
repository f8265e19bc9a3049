package sim

// Differential test harness for the simulator core.
//
// refModel below is the oracle: a sorted slice of (time, sequence) entries
// and processes that are scripts with a program counter. It shares nothing
// with the kernel — no heap, no coroutine, no goroutine — so it stays valid
// across kernel rewrites. Seeded random workloads — schedules, cancelable
// timers (some canceled, some not), process sleeps and yields, condition
// waits, kills, mid-run spawns, events scheduled at the current time around
// same-time wakes, and segmented Run(limit) — execute against the kernel and
// the model, and the harness asserts the observable record is identical line
// for line: execution order, timestamps, Events() counts, end times, and
// deadlock reports.
//
// The semantics suite at the bottom additionally pins the documented corner
// cases against both by name, so a regression says which contract broke, not
// just "logs differ", and the oracle itself is held to the same rules.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// ---------------------------------------------------------------------------
// Workload scripts (generated as data, interpreted by kernel and model)
// ---------------------------------------------------------------------------

const (
	stepSleep = iota // sleep for d
	stepYield        // yield the processor
	stepWait         // wait on the shared cond until cell >= d
	stepSched        // schedule a logging event d from now and keep running
)

type wlStep struct {
	kind int
	d    Time
}

const (
	opLog    = iota // run a logging event
	opKill          // kill procs[target]
	opCancel        // cancel timers[target] (may fire after the timer ran)
	opSpawn         // spawn late[target] as a new process mid-run
	opBump          // cell += d, then wake the shared cond
)

// For opBump, target says where a logging event scheduled at the current time
// goes relative to the wake: the fn event and the woken processes' resumes
// share a timestamp, so only their sequence numbers order them.
const (
	bumpPlain = iota
	bumpLogBeforeWake
	bumpLogAfterWake
)

type wlOp struct {
	at     Time
	kind   int
	target int
	d      int64
}

type workload struct {
	procs  [][]wlStep // initial processes
	late   [][]wlStep // bodies for opSpawn
	timers []Time     // AfterCancelable delays
	ops    []wlOp
	limits []Time // Run segments, ascending; final entry is 0 (run to completion)
}

func genWorkload(rng *rand.Rand) workload {
	var w workload
	genSteps := func(allowWait bool) []wlStep {
		steps := make([]wlStep, 1+rng.Intn(7))
		for i := range steps {
			switch k := rng.Intn(5); {
			case k == 0:
				steps[i] = wlStep{kind: stepYield}
			case k == 3 && allowWait:
				steps[i] = wlStep{kind: stepWait, d: Time(1 + rng.Intn(8))}
			case k == 4:
				steps[i] = wlStep{kind: stepSched, d: Time(rng.Intn(3) * rng.Intn(20))}
			default:
				steps[i] = wlStep{kind: stepSleep, d: Time(rng.Intn(40))}
			}
		}
		return steps
	}
	for i := 0; i < 2+rng.Intn(5); i++ {
		w.procs = append(w.procs, genSteps(true))
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		w.late = append(w.late, genSteps(false))
	}
	for i := 0; i < rng.Intn(6); i++ {
		w.timers = append(w.timers, Time(rng.Intn(150)))
	}
	nOps := 4 + rng.Intn(12)
	for i := 0; i < nOps; i++ {
		op := wlOp{at: Time(rng.Intn(200))}
		switch k := rng.Intn(10); {
		case k < 3:
			op.kind = opLog
		case k < 6:
			op.kind = opBump
			op.d = int64(1 + rng.Intn(3))
			op.target = rng.Intn(3)
		case k < 7 && len(w.procs) > 0:
			op.kind = opKill
			op.target = rng.Intn(len(w.procs))
		case k < 8 && len(w.timers) > 0:
			op.kind = opCancel
			op.target = rng.Intn(len(w.timers))
		case len(w.late) > 0:
			op.kind = opSpawn
			op.target = rng.Intn(len(w.late))
		default:
			op.kind = opLog
		}
		w.ops = append(w.ops, op)
	}
	// A few waiters may be left forever unsatisfied: those runs must
	// deadlock identically in kernel and model, which is itself asserted.
	lim := Time(0)
	for i := 0; i < rng.Intn(3); i++ {
		lim += Time(20 + rng.Intn(80))
		w.limits = append(w.limits, lim)
	}
	w.limits = append(w.limits, 0)
	return w
}

// diffModel is what a workload needs of the thing it runs on.
type diffModel interface {
	Schedule(at Time, fn func())
	AfterCancelable(d Time, fn func()) func()
	// Spawn starts a process that interprets steps, logging as process id.
	Spawn(name string, id int, steps []wlStep) (kill func())
	Wake() // re-evaluate the shared cond's waiters
	Run(limit Time) error
	Now() Time
	Events() int64
}

// diffRun is the state a workload's events and processes share: the record
// and the cell the shared cond guards.
type diffRun struct {
	m    diffModel
	log  []string
	cell int64
}

func (r *diffRun) rec(format string, args ...interface{}) {
	prefix := fmt.Sprintf("t=%-6d n=%-5d ", r.m.Now(), r.m.Events())
	r.log = append(r.log, prefix+fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// The kernel under test
// ---------------------------------------------------------------------------

type liveModel struct {
	*Env
	r *diffRun
	c Cond
}

func newLiveModel(r *diffRun) diffModel { return &liveModel{Env: NewEnv(), r: r} }

func (m *liveModel) Wake() { m.c.Wake(m.Env) }

func (m *liveModel) Spawn(name string, id int, steps []wlStep) func() {
	return m.Env.Spawn(name, func(p *Proc) {
		for i, s := range steps {
			m.r.rec("p%d step %d", id, i)
			switch s.kind {
			case stepSleep:
				p.Sleep(s.d)
			case stepYield:
				p.Yield()
			case stepWait:
				min := int64(s.d)
				m.c.Wait(p, "cell wait", func() bool { return m.r.cell >= min })
			case stepSched:
				m.After(s.d, func() { m.r.rec("p%d sched %d", id, i) })
			}
		}
		m.r.rec("p%d done", id)
	}).Kill
}

// ---------------------------------------------------------------------------
// Reference model (test-only oracle)
// ---------------------------------------------------------------------------

type refProc struct {
	name         string
	id           int
	steps        []wlStep
	pc           int
	done, killed bool
	blockedOn    string
	min          int64 // threshold of the cond wait it is parked on
}

// refEvent is a callback (fn), a process resume (proc), or a cancelable
// callback (off points at its canceled flag).
type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	proc *refProc
	off  *bool
}

type refModel struct {
	r       *diffRun
	now     Time
	seq     uint64
	events  int64
	queue   []refEvent // sorted by (at, seq)
	procs   []*refProc
	waiters []*refProc // parked on the shared cond, in registration order
}

func newRefModel(r *diffRun) diffModel { return &refModel{r: r} }

func (m *refModel) Now() Time     { return m.now }
func (m *refModel) Events() int64 { return m.events }

// add queues ev at time at (clamped to now). Sequence numbers only grow, so
// the new entry goes behind every queued entry that is not later than it.
func (m *refModel) add(at Time, ev refEvent) {
	if at < m.now {
		at = m.now
	}
	m.seq++
	ev.at, ev.seq = at, m.seq
	i := sort.Search(len(m.queue), func(i int) bool { return m.queue[i].at > at })
	m.queue = slices.Insert(m.queue, i, ev)
}

func (m *refModel) Schedule(at Time, fn func()) { m.add(at, refEvent{fn: fn}) }

func (m *refModel) AfterCancelable(d Time, fn func()) func() {
	off := new(bool)
	m.add(m.now+d, refEvent{fn: fn, off: off})
	return func() { *off = true }
}

func (m *refModel) Spawn(name string, id int, steps []wlStep) func() {
	p := &refProc{name: name, id: id, steps: steps}
	m.procs = append(m.procs, p)
	m.add(m.now, refEvent{proc: p})
	return func() {
		if !p.done && !p.killed {
			p.killed = true
			m.add(m.now, refEvent{proc: p})
		}
	}
}

func (m *refModel) Wake() {
	kept := m.waiters[:0]
	for _, p := range m.waiters {
		switch {
		case p.done || p.killed: // force-resumed by the kill already
		case m.r.cell >= p.min:
			m.add(m.now, refEvent{proc: p})
		default:
			kept = append(kept, p)
		}
	}
	m.waiters = kept
}

// resume runs p from its program counter to its next blocking point. A stale
// resume (p finished meanwhile) still counted as an event in Run.
func (m *refModel) resume(p *refProc) {
	if p.done {
		return
	}
	p.blockedOn = ""
	if p.killed {
		p.done = true
		return
	}
	for p.pc < len(p.steps) {
		i, s := p.pc, p.steps[p.pc]
		m.r.rec("p%d step %d", p.id, i)
		p.pc++
		switch s.kind {
		case stepSleep, stepYield:
			m.add(m.now+max(s.d, 0), refEvent{proc: p})
			p.blockedOn = "sleep"
			return
		case stepWait:
			if p.min = int64(s.d); m.r.cell < p.min {
				m.waiters = append(m.waiters, p)
				p.blockedOn = "cell wait"
				return
			}
		case stepSched:
			m.Schedule(m.now+s.d, func() { m.r.rec("p%d sched %d", p.id, i) })
		}
	}
	m.r.rec("p%d done", p.id)
	p.done = true
}

func (m *refModel) Run(limit Time) error {
	for len(m.queue) > 0 {
		ev := m.queue[0]
		if limit > 0 && ev.at > limit {
			m.now = limit
			return nil
		}
		m.queue = m.queue[1:]
		if ev.off != nil && *ev.off {
			continue
		}
		m.now = ev.at
		m.events++
		if ev.proc != nil {
			m.resume(ev.proc)
		} else {
			ev.fn()
		}
	}
	var blocked []string
	for _, p := range m.procs {
		if !p.done {
			blocked = append(blocked, p.name+": "+p.blockedOn)
			p.done = true // a deadlock ends the simulation: the blocked are unwound
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{At: m.now, Blocked: blocked}
	}
	return nil
}

// ---------------------------------------------------------------------------
// The differential test
// ---------------------------------------------------------------------------

// runWorkload interprets w on a fresh model and returns the full observable
// record.
func runWorkload(mk func(*diffRun) diffModel, w workload) []string {
	r := &diffRun{}
	m := mk(r)
	r.m = m
	kills := make([]func(), len(w.procs))
	for i := range w.procs {
		kills[i] = m.Spawn(fmt.Sprintf("p%d", i), i, w.procs[i])
	}
	cancels := make([]func(), len(w.timers))
	for k, d := range w.timers {
		cancels[k] = m.AfterCancelable(d, func() { r.rec("timer %d", k) })
	}
	for oi, op := range w.ops {
		switch op.kind {
		case opLog:
			m.Schedule(op.at, func() { r.rec("ev %d", oi) })
		case opKill:
			m.Schedule(op.at, func() { r.rec("kill p%d", op.target); kills[op.target]() })
		case opCancel:
			m.Schedule(op.at, func() { r.rec("cancel timer %d", op.target); cancels[op.target]() })
		case opSpawn:
			m.Schedule(op.at, func() {
				r.rec("spawn late%d", op.target)
				m.Spawn(fmt.Sprintf("late%d.%d", op.target, oi), 100+oi, w.late[op.target])
			})
		case opBump:
			m.Schedule(op.at, func() {
				r.cell += op.d
				r.rec("bump cell=%d", r.cell)
				if op.target == bumpLogBeforeWake {
					m.Schedule(m.Now(), func() { r.rec("ev %d before wake", oi) })
				}
				m.Wake()
				if op.target == bumpLogAfterWake {
					m.Schedule(m.Now(), func() { r.rec("ev %d after wake", oi) })
				}
			})
		}
	}
	for _, lim := range w.limits {
		err := m.Run(lim)
		r.rec("run(%d) -> err=%v", lim, err)
	}
	return r.log
}

// TestDifferentialRandomWorkloads drives seeded random workloads through the
// kernel and the reference model and requires a line-identical record.
func TestDifferentialRandomWorkloads(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := genWorkload(rand.New(rand.NewSource(int64(seed))))
			live := runWorkload(newLiveModel, w)
			ref := runWorkload(newRefModel, w)
			for i := 0; i < len(live) && i < len(ref); i++ {
				if live[i] != ref[i] {
					t.Fatalf("record diverged at line %d:\n  live: %s\n  ref:  %s", i, live[i], ref[i])
				}
			}
			if len(live) != len(ref) {
				t.Fatalf("record length diverged: live=%d ref=%d\nlive tail: %v\nref tail: %v",
					len(live), len(ref), tail(live), tail(ref))
			}
		})
	}
}

func tail(s []string) []string {
	if len(s) > 5 {
		return s[len(s)-5:]
	}
	return s
}

// ---------------------------------------------------------------------------
// Semantics suite: named contracts, run against kernel and model
// ---------------------------------------------------------------------------

// TestQueueSemanticsSuite pins the documented kernel contracts against the
// kernel and the reference model, so the oracle itself is held to the same
// rules.
func TestQueueSemanticsSuite(t *testing.T) {
	for _, kernel := range []struct {
		name string
		mk   func(*diffRun) diffModel
	}{
		{"live", newLiveModel},
		{"reference", newRefModel},
	} {
		mk := func() (diffModel, *diffRun) {
			r := &diffRun{}
			r.m = kernel.mk(r)
			return r.m, r
		}
		// order strips the "t= n=" prefix of a record.
		order := func(r *diffRun) string {
			var s []string
			for _, l := range r.log {
				s = append(s, l[len("t=000000 n=00000 "):])
			}
			return fmt.Sprint(s)
		}
		t.Run(kernel.name, func(t *testing.T) {
			t.Run("limit-peek-before-pop", func(t *testing.T) {
				m, _ := mk()
				var fired []Time
				for _, at := range []Time{5, 10, 15, 25} {
					m.Schedule(at, func() { fired = append(fired, at) })
				}
				if err := m.Run(12); err != nil {
					t.Fatalf("segment 1: %v", err)
				}
				if m.Now() != 12 {
					t.Fatalf("stopped at t=%d, want exactly the limit 12", m.Now())
				}
				if len(fired) != 2 || m.Events() != 2 {
					t.Fatalf("events up to the limit: fired=%v events=%d, want [5 10], 2", fired, m.Events())
				}
				// The first event past the limit must still be queued: the
				// next segment picks it up losslessly.
				if err := m.Run(0); err != nil {
					t.Fatalf("segment 2: %v", err)
				}
				if len(fired) != 4 || fired[2] != 15 || fired[3] != 25 {
					t.Fatalf("resume after limit lost events: fired=%v", fired)
				}
				if m.Now() != 25 {
					t.Fatalf("end time %d, want 25", m.Now())
				}
			})
			t.Run("sleep-across-limit", func(t *testing.T) {
				m, r := mk()
				m.Spawn("s", 0, []wlStep{{stepSleep, 10}, {stepSleep, 10}})
				if err := m.Run(15); err != nil || m.Now() != 15 || m.Events() != 2 {
					t.Fatalf("segment 1: err=%v now=%d events=%d, want nil, 15, 2", err, m.Now(), m.Events())
				}
				if err := m.Run(0); err != nil || m.Now() != 20 || m.Events() != 3 {
					t.Fatalf("segment 2: err=%v now=%d events=%d, want nil, 20, 3", err, m.Now(), m.Events())
				}
				if got, want := order(r), "[p0 step 0 p0 step 1 p0 done]"; got != want {
					t.Fatalf("got %v, want %v", got, want)
				}
			})
			t.Run("same-timestamp-schedule-order", func(t *testing.T) {
				m, _ := mk()
				var order []int
				for i := 0; i < 8; i++ {
					m.Schedule(50, func() { order = append(order, i) })
				}
				if err := m.Run(0); err != nil {
					t.Fatal(err)
				}
				for i, got := range order {
					if got != i {
						t.Fatalf("same-timestamp events ran out of scheduling order: %v", order)
					}
				}
			})
			t.Run("yield-runs-queued-events-first", func(t *testing.T) {
				m, r := mk()
				// Both events are queued at this timestamp before the yield;
				// the proc must see them run before resuming.
				m.Spawn("yielder", 0, []wlStep{{stepSched, 0}, {stepSched, 0}, {kind: stepYield}})
				if err := m.Run(0); err != nil {
					t.Fatal(err)
				}
				want := "[p0 step 0 p0 step 1 p0 step 2 p0 sched 0 p0 sched 1 p0 done]"
				if got := order(r); got != want {
					t.Fatalf("yield ordering: got %v, want %v", got, want)
				}
			})
			t.Run("same-time-wake-orders-by-sequence", func(t *testing.T) {
				// An event scheduled at the current time before a wake runs
				// before the woken process, one scheduled after it runs after:
				// a resume at the current time is not older than everything
				// else at the current time.
				m, r := mk()
				m.Spawn("w", 0, []wlStep{{stepWait, 1}})
				m.Schedule(10, func() {
					r.cell = 1
					m.Schedule(m.Now(), func() { r.rec("before") })
					m.Wake()
					m.Schedule(m.Now(), func() { r.rec("after") })
				})
				if err := m.Run(0); err != nil {
					t.Fatal(err)
				}
				if got, want := order(r), "[p0 step 0 before p0 done after]"; got != want {
					t.Fatalf("got %v, want %v", got, want)
				}
				if m.Events() != 5 {
					t.Fatalf("Events=%d, want 5 (start, bump, before, resume, after)", m.Events())
				}
			})
			t.Run("kill-sleeper-leaves-a-counted-stale-resume", func(t *testing.T) {
				m, r := mk()
				kill := m.Spawn("s", 0, []wlStep{{stepSleep, 100}})
				m.Schedule(10, kill)
				if err := m.Run(0); err != nil {
					t.Fatal(err)
				}
				if got, want := order(r), "[p0 step 0]"; got != want {
					t.Fatalf("got %v, want %v", got, want)
				}
				// start, kill event, forced resume, and the sleep's own wake-up
				// at t=100, which finds the process gone but still is an event.
				if m.Events() != 4 || m.Now() != 100 {
					t.Fatalf("Events=%d Now=%d, want 4, 100", m.Events(), m.Now())
				}
			})
			t.Run("canceled-timer-advances-nothing", func(t *testing.T) {
				m, _ := mk()
				fired := false
				cancel := m.AfterCancelable(100, func() { fired = true })
				m.Schedule(10, func() { cancel() })
				if err := m.Run(0); err != nil {
					t.Fatal(err)
				}
				if fired {
					t.Fatal("canceled timer fired")
				}
				if m.Now() != 10 {
					t.Fatalf("canceled timer advanced the clock to %d, want 10", m.Now())
				}
				if m.Events() != 1 {
					t.Fatalf("canceled timer counted as an event: Events=%d, want 1", m.Events())
				}
			})
		})
	}
}

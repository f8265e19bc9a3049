// Package sim implements a deterministic discrete-event simulation kernel, the
// substrate on which the PGAS runtime models the paper's 44-node InfiniBand
// cluster: simulated time stands in for wall-clock time.
//
// A simulated process is a coroutine (iter.Pull); the goroutine that calls
// Run is the dispatcher. One of them executes at a time and control moves only
// by coroutine switch, which never enters the Go scheduler, so the kernel
// costs the same on one P or many. One loop, step, pops events in (time,
// sequence) order and runs callback events on whichever stack is active until
// a process resume comes up. A process that blocks runs step itself: its own
// resume next means it keeps running with no switch; otherwise it leaves the
// process to resume in Env.handoff and yields to the dispatcher, which
// resumes that one (two switches).
//
// Events live by value in a 4-ary heap (queue.go) and scheduling does not
// allocate (TestScheduleDrainZeroAlloc). Two bypasses keep the commonest
// events off the heap; each still takes its sequence number and counts toward
// Events, so no event's time, order or count changes:
//
//   - an event scheduled for the current time (every Cond.Wake, Yield, Kill
//     and Spawn) goes to a FIFO, the now-queue. Sequence numbers only grow and
//     an entry earlier than the tail is refused, so the FIFO is sorted and step
//     merges it with the heap by comparing the two heads, sequence included;
//   - a Sleep whose wake-up is provably the next event — now-queue empty, heap
//     empty or strictly later (an entry at the same time is older), wake-up
//     within Run's limit — advances the clock in place: no push, pop or switch.
//
// A finished process holds nothing: coroutine, body and Describe hook are
// dropped and it leaves the live set, so a long-lived Env (a cluster running a
// job stream) retains no finished job. A Run that ends in a deadlock or a
// panic finishes the Env (see Run). queue_diff_test.go checks all of this
// against an independent reference model.
package sim

import (
	"fmt"
	"iter"
	"sort"
)

// Time is a simulated timestamp or duration in nanoseconds.
type Time = int64

// Common durations, in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// timerSlot backs one cancelable event. Slots are recycled through a free
// list; gen distinguishes incarnations so a stale cancel function (called
// after its event already ran) can never cancel the slot's next tenant.
type timerSlot struct {
	gen      uint32
	canceled bool
}

// Env is a simulation environment: an event queue, a clock, and a set of
// processes.
//
// Sharing contract: all scheduling and execution for one Env must happen in
// scheduler context — on the goroutine that calls Run, or inside a process or
// event that Run is executing; an Env must not be driven by two goroutines
// concurrently. Within that constraint, an Env may host any number of logical
// simulations at once: multiple pgas.Worlds (jobs on a shared cluster)
// spawn their processes into one queue and interleave deterministically by
// (time, sequence) order, which is exactly how internal/cluster models a
// multi-job machine. What is NOT supported is reusing one Env for two
// *independent* back-to-back experiments — time and sequence numbers only
// move forward; create a fresh Env per experiment instead.
type Env struct {
	now    Time
	seq    uint64
	events int64
	queue  eventQueue
	// nowq[nowHead:] is the now-queue: events due at the current time.
	nowq    []event
	nowHead int
	limit   Time // Run's current limit (0 = none)
	// handoff is the process a blocking process found next in step and left
	// for the dispatcher to resume; nil when it found the run at its end.
	handoff *Proc
	live    []*Proc // unfinished processes, in no particular order
	nextID  int

	// timers backs AfterCancelable events; timerFree is the slot free list.
	timers    []timerSlot
	timerFree []int32

	// panicked records a panic escaping a process so Run can re-raise it
	// on its caller, where the test harness sees it.
	panicked interface{}
	hasPanic bool
	stopping bool // stopLive is unwinding processes: step dispatches nothing
}

// NewEnv returns an empty simulation environment with the clock at zero.
func NewEnv() *Env { return &Env{} }

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// Events returns the number of events executed so far, the unit of the
// simulator-throughput (events/sec) microbenchmark.
func (e *Env) Events() int64 { return e.events }

// push gives ev its sequence number and queues it: on the now-queue if it is
// due now (or earlier, which is treated as now) and keeps that queue sorted,
// on the heap otherwise.
func (e *Env) push(ev event) {
	e.seq++
	ev.seq = e.seq
	if ev.at <= e.now {
		ev.at = e.now
		if n := len(e.nowq); n == e.nowHead || e.nowq[n-1].at <= ev.at {
			e.nowq = append(e.nowq, ev)
			return
		}
	}
	e.queue.push(ev)
}

// Schedule registers fn to run at absolute simulated time at. Scheduling in
// the past is treated as "now". Events scheduled at the same time run in
// scheduling order.
func (e *Env) Schedule(at Time, fn func()) { e.push(event{at: at, fn: fn}) }

// scheduleProc registers a resume of p at time at — the closure-free form of
// Schedule used by every sleep, wake, kill and spawn.
func (e *Env) scheduleProc(at Time, p *Proc) { e.push(event{at: at, proc: p}) }

// After registers fn to run d nanoseconds from now.
func (e *Env) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// AfterCancelable registers fn to run d nanoseconds from now and returns a
// cancel function. A canceled event is skipped entirely: it does not run,
// does not count toward Events, and — unlike a no-op event — does not
// advance the clock, so speculative timers (wait timeouts) never stretch a
// simulation's end time. Cancel is idempotent and must be called from
// scheduler context, like Schedule.
func (e *Env) AfterCancelable(d Time, fn func()) (cancel func()) {
	var idx int32
	if n := len(e.timerFree); n > 0 {
		idx = e.timerFree[n-1]
		e.timerFree = e.timerFree[:n-1]
	} else {
		e.timers = append(e.timers, timerSlot{})
		idx = int32(len(e.timers) - 1)
	}
	gen := e.timers[idx].gen
	// A huge timeout that overflows lands in the past, i.e. now.
	e.push(event{at: e.now + d, fn: fn, timer: idx + 1})
	return func() {
		if s := &e.timers[idx]; s.gen == gen {
			s.canceled = true
		}
	}
}

// releaseTimer retires a popped cancelable event's slot and reports whether
// the event had been canceled.
func (e *Env) releaseTimer(timer int32) (canceled bool) {
	s := &e.timers[timer-1]
	canceled = s.canceled
	s.canceled = false
	s.gen++
	e.timerFree = append(e.timerFree, timer-1)
	return canceled
}

// Proc is a simulated process. All Proc methods except Kill and Alive must be
// called by the process itself while it is the running process.
type Proc struct {
	env  *Env
	ID   int
	Name string
	// The coroutine, created from body at the first resume. yield parks
	// whichever goroutine the process is on — inside a nested coroutine (a
	// split-phase body) not the one it started on. All nil once finished.
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	body   func(p *Proc)
	slot   int // index in env.live
	done   bool
	killed bool // unwinds with Killed when it next resumes
	// blockedOn describes what the process is waiting for; used in
	// deadlock reports. Hot paths store static strings here; Describe,
	// when set, supplies the expensive detail lazily.
	blockedOn string
	// Describe, when non-nil, is consulted (only) when a deadlock report
	// is built: a non-empty result replaces blockedOn. It lets runtime
	// layers attach rich wait descriptions (flag names, thresholds)
	// without paying any formatting cost on the wait fast path.
	Describe func() string
}

// Killed is the panic value that unwinds a killed process. It is raised the
// next time the process blocks (or immediately, if it is blocked when Kill
// fires) and is swallowed by the spawn wrapper: a killed process terminates
// like a normal one instead of poisoning Run with a re-raised panic.
// Runtime layers above the kernel may install cleanup with defer/recover;
// a recover that sees a Killed value should re-panic it unless it fully
// owns the process's teardown.
type Killed struct {
	Proc string // name of the killed process
}

func (k Killed) String() string { return fmt.Sprintf("sim: process %s killed", k.Proc) }

// Kill marks p as killed and forces it to unwind with a Killed panic at its
// next (or current) blocking point. Must be called from scheduler context
// (inside an event or another process), never from p itself.
// Killing a finished process is a no-op.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	// Force-resume the process: if it is blocked, it wakes here and the
	// killed check in block() unwinds it; if it has a pending resume event
	// (sleeping), it wakes early and unwinds, and the stale resume event
	// later finds it done and does nothing.
	p.env.scheduleProc(p.env.now, p)
}

// Alive reports whether p has neither finished nor been killed.
func (p *Proc) Alive() bool { return !p.done && !p.killed }

// Spawn creates a process executing fn. The process starts at the current
// simulated time, after already-queued events at this timestamp; its
// coroutine is created when it does.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, ID: e.nextID, Name: name, body: fn, slot: len(e.live)}
	e.nextID++
	e.live = append(e.live, p)
	e.scheduleProc(e.now, p)
	return p
}

// resume continues p on the dispatcher's behalf: from where it parked, or
// from the top of its body on the first call — unless it was killed before it
// ever ran, which ends it without executing the body.
func (p *Proc) resume() {
	if p.next == nil {
		if p.killed {
			p.finish()
			return
		}
		body := p.body
		p.body = nil
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer p.finish()
			body(p)
		})
	}
	p.next()
}

// finish ends the process — deferred around its body, or called for one
// killed before it started. A panic other than Killed is kept for Run to
// re-raise. The process drops what reaches the world it ran in — coroutine
// (and with it the body closure) and Describe hook — and leaves the live set.
func (p *Proc) finish() {
	e := p.env
	if r := recover(); r != nil {
		if _, wasKill := r.(Killed); !wasKill && !e.hasPanic {
			e.panicked, e.hasPanic = r, true
		}
	}
	p.done = true
	p.next, p.yield, p.body, p.Describe = nil, nil, nil, nil
	last := len(e.live) - 1
	e.live[p.slot], e.live[last].slot = e.live[last], p.slot
	e.live[last] = nil
	e.live = e.live[:last]
}

// block gives up control and waits to be resumed. The blocking process
// itself runs the event loop: if its own resume event comes up next it
// continues with no switch at all; otherwise it hands the process the loop
// reached (nil: the run is at its end) to the dispatcher and parks. why must
// be cheap — pass a static string and use Proc.Describe for detail.
func (p *Proc) block(why string) {
	p.blockedOn = why
	if q := p.env.step(); q != p {
		p.env.handoff = q
		p.yield(struct{}{})
	}
	if p.killed {
		panic(Killed{Proc: p.Name})
	}
}

// step runs the event loop on the calling stack — the dispatcher's or a
// blocking process's — executing callback events until it pops a process
// resume, and returns that process for the caller to continue as (itself) or
// hand to the dispatcher. It returns nil, with nothing popped, when the run
// is at its end: queues empty, limit reached, or a panic to re-raise.
func (e *Env) step() *Proc {
	for !e.hasPanic && !e.stopping {
		// The next event is the earlier of the two queue heads by (at, seq).
		head := e.queue.peek()
		fromNowq := e.nowHead < len(e.nowq) && (head == nil || before(&e.nowq[e.nowHead], head))
		if fromNowq {
			head = &e.nowq[e.nowHead]
		}
		if head == nil || e.limit > 0 && head.at > e.limit {
			// Peek before pop: the first event past the limit stays queued
			// so a later Run resumes exactly here.
			break
		}
		var ev event
		if fromNowq {
			ev, *head = *head, event{} // release fn/proc pointers to the GC
			if e.nowHead++; e.nowHead == len(e.nowq) {
				e.nowq, e.nowHead = e.nowq[:0], 0
			}
		} else {
			ev = e.queue.pop()
		}
		if ev.timer != 0 && e.releaseTimer(ev.timer) {
			continue
		}
		e.now = ev.at
		e.events++
		if p := ev.proc; p != nil {
			if p.done {
				continue // stale resume (killed while sleeping)
			}
			p.blockedOn = ""
			return p
		}
		e.execFn(ev.fn)
	}
	return nil
}

// execFn runs one event function, capturing a panic so it is re-raised on
// the Run caller no matter which stack executed the event.
func (e *Env) execFn(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked = r
			e.hasPanic = true
		}
	}()
	fn()
}

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.env.now }

// Sleep advances the process by d simulated nanoseconds. Other processes and
// events run in the meantime. Non-positive durations yield the processor
// without advancing time (events already queued at the current time run
// first).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	e := p.env
	at := e.now + d
	// If the wake-up would be the very next event popped — nothing due now,
	// the heap strictly later, Run not stopping first — take it in place: the
	// clock, sequence and event count of push + pop, without either.
	if h := e.queue.peek(); at >= e.now && e.nowHead == len(e.nowq) && (h == nil || h.at > at) &&
		(e.limit <= 0 || at <= e.limit) && !p.killed {
		e.seq++
		e.events++
		e.now = at
		return
	}
	e.scheduleProc(at, p)
	p.block("sleep")
}

// Yield lets all events queued at the current timestamp run before the
// process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// DeadlockError reports a simulation that ran out of events while processes
// were still blocked. It is final: Run has unwound those processes.
type DeadlockError struct {
	At      Time
	Blocked []string // "name: reason" for each blocked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%d with %d blocked processes: %v",
		d.At, len(d.Blocked), d.Blocked)
}

// Run executes events until the queue is empty or until limit (if positive)
// is reached; its caller is the dispatcher that resumes processes. It returns
// a *DeadlockError if the queue drains while spawned processes are still
// blocked, and re-raises a panic inside a process or an event on the caller.
// Either finishes the Env: the processes still parked are unwound as if
// killed, so none outlives the Run, and what is still queued is dropped — a
// later Run finds nothing to do and does not report the deadlock again.
//
// Stopping at the limit is lossless: the first event past the limit stays
// queued (the queue is peeked before popping) and every process stays parked,
// so a subsequent Run resumes exactly where the previous one stopped.
func (e *Env) Run(limit Time) error {
	e.limit = limit
	for {
		p := e.handoff
		if p == nil {
			if p = e.step(); p == nil {
				break
			}
		}
		e.handoff = nil
		p.resume()
	}
	if e.hasPanic {
		e.stopLive()
		panic(e.panicked)
	}
	if e.queue.len() > 0 || e.nowHead < len(e.nowq) {
		// Stopped at the limit with the next event still queued.
		e.now = limit
		return nil
	}
	if len(e.live) == 0 {
		return nil
	}
	blocked := make([]string, len(e.live))
	for i, p := range e.live {
		why := p.blockedOn
		if p.Describe != nil {
			if d := p.Describe(); d != "" {
				why = d
			}
		}
		blocked[i] = fmt.Sprintf("%s: %s", p.Name, why)
	}
	sort.Strings(blocked)
	e.stopLive()
	return &DeadlockError{At: e.now, Blocked: blocked}
}

// stopLive ends every unfinished process as Kill would, without the events: a
// parked one resumes in block and unwinds with Killed (once more for every
// deferred call that blocks again — one that recovers Killed and blocks in a
// loop never ends, see Killed), an unstarted one just ends. It then empties
// the queues, stale resumes from those deferred calls included.
func (e *Env) stopLive() {
	e.stopping = true
	for len(e.live) > 0 {
		p := e.live[len(e.live)-1]
		p.killed = true
		p.resume()
	}
	e.stopping = false
	e.queue, e.nowq, e.nowHead = eventQueue{}, nil, 0
}

// RunAll executes the simulation to completion and panics on deadlock.
// Intended for examples and benchmarks where a deadlock is a bug.
func (e *Env) RunAll() {
	if err := e.Run(0); err != nil {
		panic(err)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Spans are recorded by the benchmark's own wrappers around its calls into
// the layers (spans inside the product code are a later change). There are
// two clocks, and a span lives on exactly one:
//
//   - host:    rep → world → {setup, run}, nanoseconds since the tracer
//     started;
//   - modeled: on ranks 0 and last of a world, episode → call
//     (core.Run*, caf.Co*, Put, SyncAll, Handle.Wait, Compute ...), in the
//     backend's own clock (Image.Now(): simulated ns on sim, wall ns since
//     launch on native).
//
// Spans stay in memory and are written once, when the traced run ends, as
// Chrome trace-event JSON. A span's self time is its duration minus the
// part its children cover.

const (
	clockHost    = "host"
	clockModeled = "modeled"
)

type span struct {
	name       string
	clock      string
	track      string // one timeline row: "driver", or "<world>/rank<r>"
	start, end int64
	parent     int // index of the causing span, -1 for a root
	rep        int
}

// tracer collects spans. A nil *tracer records nothing, so the untraced
// pass pays one nil check per wrapper call.
type tracer struct {
	mu    sync.Mutex
	spans []span
	t0    time.Time
	rep   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// hostNow is the host-clock timestamp of now.
func (t *tracer) hostNow() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.t0).Nanoseconds()
}

// open starts a span and returns its id; close it with end.
func (t *tracer) open(name, clock, track string, parent int, start int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, clock: clock, track: track,
		start: start, end: start, parent: parent, rep: t.rep})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, end int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name, clock, track string, parent int, start, end int64) int {
	id := t.open(name, clock, track, parent, start)
	t.end(id, end)
	return id
}

// rankTrace records the modeled-clock spans of one image: a stack of open
// spans under one root. Nil when the rank is not traced.
type rankTrace struct {
	t     *tracer
	track string
	stack []int
}

// modeledSpanReps is how many traced reps keep their modeled-clock spans;
// later reps record host-clock spans only, which bounds the trace of a
// workload with thousands of episodes per rep.
const modeledSpanReps = 2

// forRank returns the recorder for rank of an n-image world, or nil unless
// tracing is on and rank is 0 or n-1 (the two ranks the trace keeps).
func (t *tracer) forRank(world string, parent, rank, n int) *rankTrace {
	if t == nil || t.rep > modeledSpanReps || (rank != 0 && rank != n-1) {
		return nil
	}
	return &rankTrace{t: t, track: fmt.Sprintf("%s/rank%d", world, rank), stack: []int{parent}}
}

func (r *rankTrace) begin(name string, now int64) {
	if r == nil {
		return
	}
	id := r.t.open(name, clockModeled, r.track, r.stack[len(r.stack)-1], now)
	r.stack = append(r.stack, id)
}

func (r *rankTrace) done(now int64) {
	if r == nil {
		return
	}
	r.t.end(r.stack[len(r.stack)-1], now)
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes returns every span's duration minus its children's.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 && t.spans[s.parent].clock == s.clock {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): process 1 is the host clock, process 2 the modeled clock, one
// thread per track.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	tids := map[string]int{}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		tid, ok := tids[s.clock+s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.clock+s.track] = tid
		}
		pid := 1
		if s.clock == clockModeled {
			pid = 2
		}
		ev := chromeEvent{Name: s.name, Cat: s.clock, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: pid, TID: tid,
			Args: map[string]any{"id": i, "parent": s.parent, "rep": s.rep,
				"track": s.track, "self_ns": self[i]}}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package sim

// The event heap holds every event that is not due at the current time (those
// take the now-queue, see Env.push). It is a typed 4-ary min-heap over event
// values ordered by (at, seq):
//
//   - events are stored by value, so steady-state scheduling never allocates;
//   - 4-ary layout halves the tree depth of a binary heap, trading slightly
//     more comparisons per level for fewer cache-missing levels — the right
//     trade for the sift-down-dominated pop pattern of a simulator;
//   - sift operations move a hole instead of swapping, so each level costs
//     one copy, and the comparison is inlined (no Less/Swap calls).
//
// The (at, seq) order is a total order (seq is unique), so any correct queue
// pops the exact same sequence — the property the differential harness in
// queue_diff_test.go checks against its sorted-slice reference model.

// event is one scheduled entry, stored by value in the queue.
//
// Exactly one of fn and proc is set: fn is a callback event; proc is a
// process-resume event (sleep wake-ups, cond wakes, kills, spawn starts),
// kept as a bare pointer so the hot resume path schedules without allocating
// a closure. timer, when non-zero, is the 1-based index of the Env timer
// slot that can cancel this event (see Env.AfterCancelable).
type event struct {
	at    Time
	seq   uint64
	fn    func()
	proc  *Proc
	timer int32
}

// eventQueue is the typed 4-ary min-heap.
type eventQueue struct {
	a []event
}

func (q *eventQueue) len() int { return len(q.a) }

// peek returns the earliest event in place, nil when the queue is empty.
func (q *eventQueue) peek() *event {
	if len(q.a) == 0 {
		return nil
	}
	return &q.a[0]
}

// before reports whether x orders strictly before y.
func before(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// push inserts ev, sifting it up from the tail. Steady-state (capacity
// already grown) this performs no allocation.
func (q *eventQueue) push(ev event) {
	q.a = append(q.a, ev)
	a := q.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !before(&ev, &a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = ev
}

// pop removes and returns the earliest event; the queue must be non-empty.
func (q *eventQueue) pop() event {
	a := q.a
	root := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = event{} // release fn/proc pointers to the GC
	q.a = a[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return root
}

// siftDown places ev starting from the (vacated) root, moving the hole down
// toward the smallest child at each level.
func (q *eventQueue) siftDown(ev event) {
	a := q.a
	n := len(a)
	i := 0
	for {
		first := i<<2 + 1 // leftmost child
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if before(&a[c], &a[m]) {
				m = c
			}
		}
		if !before(&a[m], &ev) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = ev
}

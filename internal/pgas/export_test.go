package pgas

// Len returns how many keys r holds.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// WorldRegistry returns w's registry.
func WorldRegistry(w *World) *Registry { return &w.reg }

// SimSegmentAllocs is simSegmentAllocs, for the external tests.
var SimSegmentAllocs = simSegmentAllocs

// OnlyCoarray returns the one coarray of T that r holds (a collective's box
// lives in its team's registry), or nil if r holds none or several.
func OnlyCoarray[T any](r *Registry) *Coarray[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	var only *Coarray[T]
	n := 0
	for _, e := range r.m {
		if c, ok := e.v.(*Coarray[T]); ok {
			only, n = c, n+1
		}
	}
	if n != 1 {
		return nil
	}
	return only
}

// StagePool returns how many staging records c's pool has grown to.
func StagePool[T any](c *Coarray[T]) int { return len(c.stageFree) }

// Flights returns how many put records c's guard holds for target, and
// whether c is a write-at-issue coarray at all.
func Flights[T any](c *Coarray[T], target int) (int, bool) {
	if c.inflight == nil {
		return 0, false
	}
	if c.inflight.flights == nil {
		return 0, true
	}
	return len(c.inflight.flights[target]), true
}

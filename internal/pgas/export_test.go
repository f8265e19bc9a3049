package pgas

// Len returns how many keys r holds.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// WorldRegistry returns w's registry.
func WorldRegistry(w *World) *Registry { return &w.reg }

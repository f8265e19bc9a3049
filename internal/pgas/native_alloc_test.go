//go:build !race

package pgas

import "testing"

// TestNativeNotifyWaitZeroAlloc pins the native hot path, in the style of
// TestFlagDeliveryZeroAlloc: a wait whose flag is already there, a notify
// with nobody waiting, an 8 KiB put+flag, a get and the two remote atomics
// allocate nothing — no description string, no predicate or commit closure,
// no timer. (Not built under -race, where allocation counts mean nothing.)
func TestNativeNotifyWaitZeroAlloc(t *testing.T) {
	w := newNativeTestWorld(t, 1, 2)
	const elems = 1024 // 8 KiB of float64
	co := NewCoarray[float64](w, "alloc-co", elems)
	fl := NewFlags(w, "alloc-fl", 2)
	w.Run(func(im *Image) {
		if im.Rank() != 0 {
			return
		}
		src, dst := make([]float64, elems), make([]float64, elems)
		im.SetLocal(fl, 0, 1)
		// Warm: materialise image 1's slab and flag row.
		PutThenNotify(im, co, 1, 0, src, fl, 1, 1, ViaAuto)
		for name, op := range map[string]func(){
			"satisfied WaitFlagGE":   func() { im.WaitFlagGE(fl, 0, 0, 1) },
			"NotifyAdd, no waiter":   func() { im.NotifyAdd(fl, 1, 0, 1, ViaAuto) },
			"PutThenNotify of 8 KiB": func() { PutThenNotify(im, co, 1, 0, src, fl, 1, 1, ViaAuto) },
			"Put of 8 KiB":           func() { Put(im, co, 1, 0, src, ViaAuto) },
			"Get of 8 KiB":           func() { Get(im, co, 1, 0, dst) },
			"FetchOpFlag":            func() { im.FetchOpFlag(fl, 1, 0, AtomicAdd, 1) },
			"CompareAndSwapFlag":     func() { im.CompareAndSwapFlag(fl, 1, 0, 0, 1) },
		} {
			if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
				t.Errorf("%s allocates %.1f objects per call, want 0", name, allocs)
			}
		}
	})
}

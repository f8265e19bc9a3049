//go:build !race

package caf

import (
	"runtime"
	"testing"
)

// TestCoCallsSteadyStateAllocs extends internal/core's zero-allocations pin to
// the public entry points on the sim backend: once state, scratch and the
// event queue are warm, a Co* call allocates nothing per episode — in
// particular no reduction operation per call (coll.SumOp and friends are
// built once per element type). Not built under -race, where allocation
// counts mean nothing.
func TestCoCallsSteadyStateAllocs(t *testing.T) {
	const warm, eps, elems, root = 2, 40, 128, 6
	type bufs struct {
		vec, all, all2 []float64
		ivec           []int32
	}
	calls := []struct {
		name string
		call func(im *Image, b bufs)
	}{
		{"SyncAll", func(im *Image, b bufs) { im.SyncAll() }},
		{"CoSumT", func(im *Image, b bufs) { CoSumT(im, b.vec) }},
		{"CoMaxT[int32]", func(im *Image, b bufs) { CoMaxT(im, b.ivec) }},
		{"CoMinT", func(im *Image, b bufs) { CoMinT(im, b.vec) }},
		{"CoSumToT", func(im *Image, b bufs) { CoSumToT(im, b.vec, root) }},
		{"CoBroadcastT", func(im *Image, b bufs) { CoBroadcastT(im, b.vec, root) }},
		{"CoAllgatherT", func(im *Image, b bufs) { CoAllgatherT(im, b.vec, b.all) }},
		{"CoScatterT", func(im *Image, b bufs) { CoScatterT(im, b.all, b.vec, root) }},
		{"CoGatherT", func(im *Image, b bufs) { CoGatherT(im, b.vec, b.all, root) }},
		{"CoAlltoallT", func(im *Image, b bufs) { CoAlltoallT(im, b.all, b.all2) }},
		{"CoScanT", func(im *Image, b bufs) { CoScanT(im, b.vec, false) }},
	}
	for _, c := range calls {
		var before, after runtime.MemStats
		images := 0
		_, err := Run(Config{Spec: "8(4)", Backend: BackendSim}, func(im *Image) {
			n := im.NumImages()
			images = n
			b := bufs{vec: make([]float64, elems), ivec: make([]int32, elems),
				all: make([]float64, n*elems), all2: make([]float64, n*elems)}
			for i := 0; i < warm; i++ {
				c.call(im, b)
				im.SyncAll()
			}
			if im.ThisImage() == 1 {
				runtime.ReadMemStats(&before)
			}
			im.SyncAll()
			for i := 0; i < eps; i++ {
				c.call(im, b)
			}
			im.SyncAll()
			if im.ThisImage() == 1 {
				runtime.ReadMemStats(&after)
			}
			im.SyncAll() // nobody starts tearing down before the reading
		})
		if err != nil {
			t.Fatal(err)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(eps*images)
		t.Logf("%-14s %.3f allocs/episode/image", c.name, per)
		// A stray allocation (a queue or waiter slice growing once, a GC
		// worker) must not fail the pin: 40 episodes x 8 images leave room
		// for a handful.
		if per > 0.1 {
			t.Errorf("%s: %.2f allocs per episode per image on sim, want 0", c.name, per)
		}
	}
}

package pgas

// Native-backend primitive tests: the same one-sided and synchronization
// surface the sim tests exercise, but on real goroutines. Run with -race to
// make these meaningful — the put+flag happens-before chain is exactly what
// the race detector checks here.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"cafteams/internal/machine"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

func newNativeTestWorld(t *testing.T, nodes, perNode int) *World {
	t.Helper()
	topo, err := topology.New(nodes, 2, (perNode+1)/2, nodes*perNode, topology.PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	return NewNativeWorld(machine.PaperCluster(), topo, trace.New())
}

// TestNativePutThenNotifyFlagAfterPayload: the payload must be fully
// visible once the flag threshold is observed, on every path.
func TestNativePutThenNotifyFlagAfterPayload(t *testing.T) {
	w := newNativeTestWorld(t, 2, 4)
	const elems = 1024
	end := w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "payload", elems)
		fl := NewFlags(w, "payload-fl", w.NumImages())
		next := (im.Rank() + 1) % w.NumImages()
		prev := (im.Rank() - 1 + w.NumImages()) % w.NumImages()
		for ep := int64(1); ep <= 8; ep++ {
			buf := make([]float64, elems)
			for i := range buf {
				buf[i] = float64(im.Rank())*1e6 + float64(ep)*1e3 + float64(i)
			}
			PutThenNotify(im, co, next, 0, buf, fl, im.Rank(), 1, ViaAuto)
			im.WaitFlagGE(fl, im.rank, prev, ep)
			got := Local(co, im)
			for i := range got {
				want := float64(prev)*1e6 + float64(ep)*1e3 + float64(i)
				if got[i] != want {
					t.Errorf("rank %d ep %d elem %d: got %v want %v", im.Rank(), ep, i, got[i], want)
					return
				}
			}
			im.SyncImages(allNativeRanks(w))
		}
	})
	if end <= 0 {
		t.Fatal("no wall-clock time elapsed")
	}
}

func allNativeRanks(w *World) []int {
	ranks := make([]int, w.NumImages())
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// TestNativeGetBlocking: Get must return with the data in place.
func TestNativeGetBlocking(t *testing.T) {
	w := newNativeTestWorld(t, 2, 2)
	w.Run(func(im *Image) {
		co := NewCoarray[int32](w, "getsrc", 16)
		fl := NewFlags(w, "get-fl", 1)
		local := Local(co, im)
		for i := range local {
			local[i] = int32(im.Rank()*100 + i)
		}
		// Publish own slab to every image, then wait for every publish.
		for r := 0; r < w.NumImages(); r++ {
			im.NotifyAdd(fl, r, 0, 1, ViaAuto)
		}
		im.WaitFlagGE(fl, im.rank, 0, int64(w.NumImages()))
		// Every image reads every other image's slab.
		dst := make([]int32, 16)
		for r := 0; r < w.NumImages(); r++ {
			Get(im, co, r, 0, dst)
			for i, v := range dst {
				if v != int32(r*100+i) {
					t.Errorf("rank %d get from %d elem %d: got %d", im.Rank(), r, i, v)
					return
				}
			}
		}
	})
}

// TestNativeAtomics: FetchOpFlag and CompareAndSwapFlag are linearizable
// under real concurrency — N images hammer one cell and the sum checks out.
func TestNativeAtomics(t *testing.T) {
	w := newNativeTestWorld(t, 1, 8)
	const perImage = 200
	fl := NewFlags(w, "atomic-cell", 2)
	w.Run(func(im *Image) {
		for i := 0; i < perImage; i++ {
			im.FetchAddFlag(fl, 0, 0, 1)
		}
		// One CAS winner per round on slot 1.
		if im.CompareAndSwapFlag(fl, 0, 1, 0, int64(im.Rank())+1) == 0 {
			im.FetchAddFlag(fl, 0, 0, 0) // winner: no-op touch
		}
	})
	if got := fl.Peek(0, 0); got != int64(w.NumImages()*perImage) {
		t.Fatalf("fetch-add total %d, want %d", got, w.NumImages()*perImage)
	}
	if winner := fl.Peek(0, 1); winner < 1 || winner > int64(w.NumImages()) {
		t.Fatalf("cas winner %d out of range", winner)
	}
}

// TestNativeEventsAndQuiet: events (counting semaphores) and SyncMemory
// semantics on the native backend.
func TestNativeEventsAndQuiet(t *testing.T) {
	w := newNativeTestWorld(t, 2, 2)
	var posts int64
	w.Run(func(im *Image) {
		ev := NewEvents(w, "native-ev", 1)
		if im.Rank() == 0 {
			im.WaitEvent(ev, 0, int64(w.NumImages()-1))
			if got := atomic.LoadInt64(&posts); got != int64(w.NumImages()-1) {
				t.Errorf("rank 0 woke after %d posts", got)
			}
		} else {
			atomic.AddInt64(&posts, 1)
			im.Post(ev, 0, 0, ViaAuto)
			im.Quiet()
		}
	})
}

// TestNativeProgressEngine: a split-phase operation driven by Await
// completes on the native backend.
func TestNativeProgressEngine(t *testing.T) {
	w := newNativeTestWorld(t, 1, 4)
	fl := NewFlags(w, "nb-fl", 1)
	w.Run(func(im *Image) {
		// A trivial split-phase body: done once every image's notify arrived.
		n := int64(w.NumImages())
		for r := 0; r < int(n); r++ {
			im.NotifyAdd(fl, r, 0, 1, ViaAuto)
		}
		h := im.StartOp(func() { im.WaitFlagGE(fl, im.Rank(), 0, n) })
		im.Compute(1e3)
		h.Wait()
		if got := fl.load(im.rank, 0); got < n {
			t.Errorf("rank %d finished wait at flag %d, want >= %d", im.Rank(), got, n)
		}
	})
}

// TestNativeFirstTouchRace: coarray slabs and flag rows materialise on first
// touch, and on this backend every image can be that first touch at once.
// All images PutThenNotify into the never-touched slab (and flag row) of
// image 0 from behind a start gate, on a fresh coarray per round: exactly
// one slab and one row may come to exist per round, and no write may land in
// a slab that lost the race. Run with -race.
func TestNativeFirstTouchRace(t *testing.T) {
	w := newNativeTestWorld(t, 2, 8)
	n := w.NumImages()
	const rounds, elems = 40, 4
	gates := make([]atomic.Int64, rounds)
	w.Run(func(im *Image) {
		for r := 0; r < rounds; r++ {
			co := NewCoarray[float64](w, fmt.Sprintf("first-touch-%d", r), n*elems)
			fl := NewFlags(w, fmt.Sprintf("first-touch-fl-%d", r), 3)
			mine := make([]float64, elems)
			for i := range mine {
				mine[i] = float64(1000*r + 10*im.Rank() + i + 1)
			}
			gates[r].Add(1)
			for gates[r].Load() < int64(n) {
				runtime.Gosched()
			}
			PutThenNotify(im, co, 0, im.Rank()*elems, mine, fl, 1, 1, ViaAuto)
			if im.Rank() != 0 {
				continue
			}
			im.WaitFlagGE(fl, 0, 1, int64(n))
			got := Local(co, im)
			for j := range got {
				// Keep going after a loss: the others wait at the next gate.
				if want := float64(1000*r + 10*(j/elems) + j%elems + 1); got[j] != want {
					t.Errorf("round %d: image %d's write lost: elem %d = %v, want %v", r, j/elems, j%elems, got[j], want)
					break
				}
			}
		}
	})
	sn := w.Stats().Snapshot()
	if want := int64(rounds * n * elems * 8); sn.CoarrayBytes != want {
		t.Errorf("materialised %d coarray bytes, want %d (one slab per round)", sn.CoarrayBytes, want)
	}
	if want := int64(rounds * 3 * 8); sn.FlagBytes != want {
		t.Errorf("materialised %d flag bytes, want %d (one row per round)", sn.FlagBytes, want)
	}
}

package pgas

import (
	"testing"

	"cafteams/internal/machine"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// simSegmentAllocs launches the body that setup builds on a 4(2) sim world
// and returns the allocations of one steady-state 100 µs segment, after 500
// µs of warm-up that grow the event heap, the delivery pool, the flag tables
// and the slabs. Bodies loop until *stop.
func simSegmentAllocs(t *testing.T, setup func(w *World) func(im *Image, stop *bool)) float64 {
	t.Helper()
	topo, err := topology.ParseSpec("4(2)")
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	w, err := NewWorld(env, machine.PaperCluster(), topo, trace.New())
	if err != nil {
		t.Fatal(err)
	}
	body, stop := setup(w), false
	w.Launch(func(im *Image) { body(im, &stop) })
	limit := 500 * sim.Microsecond
	if err := env.Run(limit); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		limit += 100 * sim.Microsecond
		if err := env.Run(limit); err != nil {
			t.Fatal(err)
		}
	})
	stop = true
	_ = env.Run(0) // drain; a waiter may end blocked, which is fine here
	return allocs
}

// TestFlagDeliveryZeroAlloc pins the pooled remote-notification path on the
// sim backend: in steady state a NotifyAdd — route hops, pooled delivery
// record, flag bump, cond wake — and the matching WaitFlagGE must not
// allocate. This is the per-message cost of every collective's
// synchronization, so a regression here multiplies across whole sweeps.
func TestFlagDeliveryZeroAlloc(t *testing.T) {
	allocs := simSegmentAllocs(t, func(w *World) func(*Image, *bool) {
		fl := NewFlags(w, "ping", 1)
		return func(im *Image, stop *bool) {
			switch im.Rank() {
			case 0:
				for !*stop {
					im.NotifyAdd(fl, 1, 0, 1, ViaConduit)
					im.Sleep(10 * sim.Microsecond)
				}
			case 1:
				var seen int64
				for !*stop {
					seen++
					im.WaitFlagGE(fl, 1, 0, seen)
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("pooled flag delivery allocates %.1f objects per segment, want 0", allocs)
	}
}

// TestSimGetZeroAlloc pins the sim backend's blocking read: in steady state a
// Get from a same-node image (a membus message, waited for) and one from an
// off-node image (a request out, the payload back) allocate nothing. The
// transport only admits and charges the read; the typed front end copies, so
// no commit closure is built per Get.
func TestSimGetZeroAlloc(t *testing.T) {
	allocs := simSegmentAllocs(t, func(w *World) func(*Image, *bool) {
		co := NewCoarray[float64](w, "get", 64)
		return func(im *Image, stop *bool) {
			if im.Rank() != 0 {
				return
			}
			dst := make([]float64, 64)
			for !*stop {
				Get(im, co, 1, 0, dst) // same node
				Get(im, co, 2, 0, dst) // off node
				im.Sleep(10 * sim.Microsecond)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("sim Get allocates %.1f objects per segment, want 0", allocs)
	}
}

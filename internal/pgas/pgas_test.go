package pgas

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cafteams/internal/machine"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// newTestWorld builds a world with exactly perNode images on each of nodes
// nodes.
func newTestWorld(t testing.TB, nodes, perNode int) *World {
	t.Helper()
	topo, err := topology.ParseSpec(fmt.Sprintf("%d(%d)", nodes*perNode, nodes))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorldShape(t *testing.T) {
	w := newTestWorld(t, 4, 8)
	if w.NumImages() != 32 {
		t.Fatalf("images = %d, want 32", w.NumImages())
	}
	if w.Image(9).Node() != 1 {
		t.Fatalf("image 9 on node %d, want 1", w.Image(9).Node())
	}
}

func TestPutDeliversData(t *testing.T) {
	w := newTestWorld(t, 2, 4)
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "A", 8)
		if im.Rank() == 0 {
			src := []float64{1, 2, 3}
			Put(im, co, 5, 2, src, ViaConduit)
			im.Quiet()
			im.NotifyAdd(NewFlags(w, "done", 1), 5, 0, 1, ViaConduit)
		}
		if im.Rank() == 5 {
			im.WaitFlagGE(NewFlags(w, "done", 1), 5, 0, 1)
			got := Local(co, im)
			if got[2] != 1 || got[3] != 2 || got[4] != 3 {
				t.Errorf("image 5 slab = %v", got[:6])
			}
		}
	})
}

func TestPutCopiesSourceAtIssueTime(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	w.Run(func(im *Image) {
		co := NewCoarray[int64](w, "B", 4)
		fl := NewFlags(w, "fl", 1)
		if im.Rank() == 0 {
			src := []int64{7}
			Put(im, co, 3, 0, src, ViaConduit)
			src[0] = 99 // must not affect the in-flight put
			im.Quiet()
			im.NotifyAdd(fl, 3, 0, 1, ViaConduit)
		}
		if im.Rank() == 3 {
			im.WaitFlagGE(fl, 3, 0, 1)
			if got := Local(co, im)[0]; got != 7 {
				t.Errorf("delivered %d, want 7 (put must snapshot its source)", got)
			}
		}
	})
}

func TestGetIsBlockingAndCorrect(t *testing.T) {
	w := newTestWorld(t, 2, 4)
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "C", 4)
		mine := Local(co, im)
		for i := range mine {
			mine[i] = float64(im.Rank()*10 + i)
		}
		im.SyncImages(allRanks(w)) // everyone initialized
		peer := (im.Rank() + 3) % w.NumImages()
		dst := make([]float64, 4)
		before := im.Now()
		Get(im, co, peer, 0, dst)
		if im.Now() <= before {
			t.Errorf("image %d: get charged no time", im.Rank())
		}
		for i := range dst {
			if dst[i] != float64(peer*10+i) {
				t.Errorf("image %d got %v from %d", im.Rank(), dst, peer)
				break
			}
		}
	})
}

func TestSelfGetAndPut(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	w.Run(func(im *Image) {
		if im.Rank() != 0 {
			return
		}
		co := NewCoarray[int32](w, "self", 4)
		Put(im, co, 0, 1, []int32{42}, ViaAuto)
		im.Quiet()
		dst := make([]int32, 1)
		Get(im, co, 0, 1, dst)
		if dst[0] != 42 {
			t.Errorf("self put/get = %d, want 42", dst[0])
		}
	})
}

func TestQuietWaitsForDelivery(t *testing.T) {
	w := newTestWorld(t, 2, 1)
	var issued, quieted sim.Time
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "Q", 1024)
		if im.Rank() == 0 {
			Put(im, co, 1, 0, make([]float64, 1024), ViaConduit)
			issued = im.Now()
			im.Quiet()
			quieted = im.Now()
		}
	})
	if quieted <= issued {
		t.Fatalf("quiet returned at %d, issue at %d; must wait for delivery", quieted, issued)
	}
}

func TestPutThenNotifyOrdersFlagAfterData(t *testing.T) {
	w := newTestWorld(t, 2, 4)
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "PN", 2048)
		fl := NewFlags(w, "pnf", 1)
		if im.Rank() == 0 {
			big := make([]float64, 2048)
			for i := range big {
				big[i] = 3.25
			}
			PutThenNotify(im, co, 7, 0, big, fl, 0, 1, ViaConduit)
		}
		if im.Rank() == 7 {
			im.WaitFlagGE(fl, 7, 0, 1)
			data := Local(co, im)
			if data[2047] != 3.25 {
				t.Error("flag arrived before payload")
			}
		}
	})
}

func TestShmPathRequiresSameNode(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-node shm put did not panic")
		}
	}()
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "X", 1)
		if im.Rank() == 0 {
			Put(im, co, 3, 0, []float64{1}, ViaShm) // image 3 is on node 1
		}
	})
}

func TestWaitOnRemoteFlagsPanics(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("waiting on a remote image's flags did not panic")
		}
	}()
	w.Run(func(im *Image) {
		fl := NewFlags(w, "remote", 1)
		if im.Rank() == 0 {
			im.WaitFlagGE(fl, 3, 0, 1)
		}
	})
}

func TestViaAutoSelectsShmOnNode(t *testing.T) {
	w := newTestWorld(t, 2, 4)
	// Time a same-node auto put vs a conduit loopback put: auto must be
	// far cheaper (it uses the shared-memory path).
	var shmT, loopT sim.Time
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "Y", 8)
		if im.Rank() == 0 {
			t0 := im.Now()
			Put(im, co, 1, 0, []float64{1}, ViaAuto)
			im.Quiet()
			shmT = im.Now() - t0
			t0 = im.Now()
			Put(im, co, 1, 0, []float64{1}, ViaConduit)
			im.Quiet()
			loopT = im.Now() - t0
		}
	})
	if shmT >= loopT {
		t.Fatalf("auto same-node put (%d ns) not cheaper than conduit loopback (%d ns)", shmT, loopT)
	}
}

func TestInterNodeDearerThanIntraShm(t *testing.T) {
	w := newTestWorld(t, 2, 4)
	var intra, inter sim.Time
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "Z", 8)
		if im.Rank() == 0 {
			t0 := im.Now()
			Put(im, co, 1, 0, []float64{1}, ViaAuto) // same node
			im.Quiet()
			intra = im.Now() - t0
			t0 = im.Now()
			Put(im, co, 4, 0, []float64{1}, ViaAuto) // other node
			im.Quiet()
			inter = im.Now() - t0
		}
	})
	if intra >= inter {
		t.Fatalf("intra-node put (%d) not cheaper than inter-node (%d)", intra, inter)
	}
}

func TestNICSerializesConcurrentSenders(t *testing.T) {
	// 8 images on node 0 each put to node 1; deliveries must be spaced by
	// at least the NIC gap.
	w := newTestWorld(t, 2, 8)
	var last sim.Time
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "N", 8)
		if im.Node() == 0 {
			Put(im, co, 8+im.Rank(), 0, []float64{1}, ViaConduit)
			im.Quiet()
			if im.Now() > last {
				last = im.Now()
			}
		}
	})
	g := w.Model().Net.G
	minSpan := 8 * g // eight messages through one sending NIC
	if last < minSpan {
		t.Fatalf("8 concurrent puts finished in %d ns; NIC gap %d ns should force >= %d", last, g, minSpan)
	}
}

func TestSyncImagesPairwise(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	order := make([]int, 0, 8)
	w.Run(func(im *Image) {
		if im.Rank() == 0 {
			im.Sleep(10 * sim.Microsecond) // late arriver
		}
		im.SyncImages(allRanks(w))
		order = append(order, im.Rank())
		if im.Now() < 10*sim.Microsecond {
			t.Errorf("image %d left sync before the late image arrived", im.Rank())
		}
	})
	if len(order) != 4 {
		t.Fatalf("only %d images left the sync", len(order))
	}
}

func TestSyncImagesRepeatedEpisodes(t *testing.T) {
	w := newTestWorld(t, 2, 4)
	counts := make([]int, w.NumImages())
	w.Run(func(im *Image) {
		for ep := 0; ep < 5; ep++ {
			im.SyncImages(allRanks(w))
			counts[im.Rank()]++
			// No image may be more than one episode ahead.
			for r, c := range counts {
				if c < counts[im.Rank()]-1 && r != im.Rank() {
					// allowed: others may lag by at most the
					// episode being counted now
					_ = r
				}
			}
		}
	})
	for r, c := range counts {
		if c != 5 {
			t.Fatalf("image %d completed %d episodes, want 5", r, c)
		}
	}
}

func TestFetchAddFlagReturnsOldValue(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	var olds []int64
	w.Run(func(im *Image) {
		fl := NewFlags(w, "ctr", 1)
		old := im.FetchAddFlag(fl, 0, 0, 1)
		olds = append(olds, old)
		im.SyncImages(allRanks(w))
		if im.Rank() == 0 && fl.Peek(0, 0) != int64(w.NumImages()) {
			t.Errorf("counter = %d, want %d", fl.Peek(0, 0), w.NumImages())
		}
	})
	seen := map[int64]bool{}
	for _, o := range olds {
		if seen[o] {
			t.Fatalf("fetch-add returned duplicate old value %d: %v", o, olds)
		}
		seen[o] = true
	}
}

func TestTeamCoarrayOwnership(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	w.Run(func(im *Image) {
		co := NewTeamCoarray[float64](w, "team", 4, []int{0, 1})
		if co.OwnedBy(2) {
			t.Error("image 2 should not own the team coarray")
		}
		if !co.OwnedBy(im.Rank()) && im.Rank() <= 1 {
			t.Errorf("image %d should own the team coarray", im.Rank())
		}
	})
}

func TestTeamCoarrayAccessByNonMemberPanics(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("non-member access did not panic")
		}
	}()
	w.Run(func(im *Image) {
		co := NewTeamCoarray[float64](w, "team2", 4, []int{0, 1})
		if im.Rank() == 2 {
			Local(co, im)
		}
	})
}

func TestCoarrayBoundsChecked(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds put did not panic")
		}
	}()
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "bounds", 4)
		if im.Rank() == 0 {
			Put(im, co, 1, 3, []float64{1, 2}, ViaConduit)
		}
	})
}

func TestStatsClassifyIntraInter(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "S", 4)
		if im.Rank() == 0 {
			Put(im, co, 1, 0, []float64{1}, ViaAuto) // intra
			Put(im, co, 2, 0, []float64{1}, ViaAuto) // inter
			Put(im, co, 0, 0, []float64{1}, ViaAuto) // self
			im.Quiet()
		}
	})
	sn := w.Stats().Snapshot()
	if sn.IntraMsgs != 1 || sn.InterMsgs != 1 || sn.SelfMsgs != 1 {
		t.Fatalf("stats = %+v, want 1 intra, 1 inter, 1 self", sn)
	}
	if sn.IntraBytes != 8 || sn.InterBytes != 8 {
		t.Fatalf("bytes = %d/%d, want 8/8", sn.IntraBytes, sn.InterBytes)
	}
}

func TestDeterministicEndTime(t *testing.T) {
	run := func() sim.Time {
		w := newTestWorld(t, 4, 8)
		return w.Run(func(im *Image) {
			co := NewCoarray[float64](w, "D", 64)
			rng := rand.New(rand.NewSource(int64(im.Rank())))
			for i := 0; i < 10; i++ {
				peer := rng.Intn(w.NumImages())
				Put(im, co, peer, 0, []float64{float64(i)}, ViaAuto)
				im.Sleep(sim.Time(rng.Intn(1000)))
			}
			im.Quiet()
			im.SyncImages(allRanks(w))
		})
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("non-deterministic end time: %d vs %d", again, first)
		}
	}
}

func TestLargePutChargesBandwidth(t *testing.T) {
	w := newTestWorld(t, 2, 1)
	var small, large sim.Time
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "BW", 1<<16)
		if im.Rank() == 0 {
			t0 := im.Now()
			Put(im, co, 1, 0, make([]float64, 1), ViaConduit)
			im.Quiet()
			small = im.Now() - t0
			t0 = im.Now()
			Put(im, co, 1, 0, make([]float64, 1<<16), ViaConduit)
			im.Quiet()
			large = im.Now() - t0
		}
	})
	if large < small+sim.Time(float64(8<<16)/w.Model().Net.BytesPerNS/2) {
		t.Fatalf("large put (%d) should pay bandwidth over small (%d)", large, small)
	}
}

func TestComputeChargesTime(t *testing.T) {
	w := newTestWorld(t, 1, 1)
	var dt sim.Time
	w.Run(func(im *Image) {
		t0 := im.Now()
		im.Compute(1e6)
		dt = im.Now() - t0
	})
	want := w.Model().ComputeTime(1e6)
	if dt != want {
		t.Fatalf("compute charged %d, want %d", dt, want)
	}
}

func TestFlagsRegistryShared(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	w.Run(func(im *Image) {
		a := NewFlags(w, "shared", 4)
		b := NewFlags(w, "shared", 4)
		if a != b {
			t.Error("same-name flags must be the same object")
		}
	})
}

func TestNotifySetMonotone(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	w.Run(func(im *Image) {
		fl := NewFlags(w, "mono", 1)
		if im.Rank() == 0 {
			im.NotifySet(fl, 1, 0, 5, ViaAuto)
			im.NotifySet(fl, 1, 0, 3, ViaAuto) // must not regress
			im.Quiet()
			im.NotifyAdd(NewFlags(w, "monodone", 1), 1, 0, 1, ViaAuto)
		} else {
			im.WaitFlagGE(NewFlags(w, "monodone", 1), 1, 0, 1)
			if fl.Peek(1, 0) != 5 {
				t.Errorf("flag = %d, want 5 (set is monotone)", fl.Peek(1, 0))
			}
		}
	})
}

// TestNotifySetOutOfOrderDelivery pins the monotonic-max semantics under
// genuinely reordered delivery: a fast shared-memory stamp for episode 2
// overtakes a slow conduit stamp for episode 1 issued earlier, and the late
// episode-1 arrival must not roll the flag back.
func TestNotifySetOutOfOrderDelivery(t *testing.T) {
	w := newTestWorld(t, 2, 2) // images 0,1 on node 0; images 2,3 on node 1
	w.Run(func(im *Image) {
		fl := NewFlags(w, "ooo", 1)
		switch im.Rank() {
		case 2:
			// Issued first, but pays conduit latency (~3 us): episode 1.
			im.NotifySet(fl, 0, 0, 1, ViaConduit)
		case 1:
			// Issued later, delivered first over shared memory: episode 2.
			im.Sleep(500 * sim.Nanosecond)
			im.NotifySet(fl, 0, 0, 2, ViaShm)
		case 0:
			im.WaitFlagGE(fl, 0, 0, 2)
			if got := fl.Peek(0, 0); got != 2 {
				t.Errorf("flag = %d after fast stamp, want 2", got)
			}
			im.Sleep(20 * sim.Microsecond) // let the stale episode-1 stamp land
			if got := fl.Peek(0, 0); got != 2 {
				t.Errorf("flag = %d after late stamp, want 2 (set is monotone max)", got)
			}
		}
	})
}

// TestCoarrayKeyedByElementType: two coarrays sharing a name but differing
// in element type must be distinct allocations (this used to be a type
// assertion panic on the second NewCoarray).
func TestCoarrayKeyedByElementType(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	w.Run(func(im *Image) {
		cf := NewCoarray[float64](w, "dual", 4)
		ci := NewCoarray[int64](w, "dual", 4)
		Local(cf, im)[0] = 2.5
		Local(ci, im)[0] = 7
		im.Sleep(0)
		if got := Local(cf, im)[0]; got != 2.5 {
			t.Errorf("float64 slab = %v, want 2.5 (aliased with int64 coarray?)", got)
		}
		if got := Local(ci, im)[0]; got != 7 {
			t.Errorf("int64 slab = %v, want 7", got)
		}
		// Same name, same type: still one shared allocation.
		if cf2 := NewCoarray[float64](w, "dual", 4); cf2 != cf {
			t.Error("same-(name,type) coarrays must be the same object")
		}
	})
}

func TestTeamCoarrayKeyedByElementType(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	w.Run(func(im *Image) {
		members := []int{0, 1}
		cf := NewTeamCoarray[float64](w, "tdual", 2, members)
		ci := NewTeamCoarray[int32](w, "tdual", 2, members)
		if !cf.OwnedBy(im.Rank()) || !ci.OwnedBy(im.Rank()) {
			t.Error("member does not own its team coarray slab")
		}
	})
}

// Property: random put/get traffic always round-trips values exactly.
func TestPutGetRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newTestWorld(t, 2, 2)
		n := 16
		ok := true
		w.Run(func(im *Image) {
			co := NewCoarray[float64](w, "prop", n)
			vals := make([]float64, n)
			// Each image fills its own slab with rank-tagged values.
			mine := Local(co, im)
			for i := range mine {
				mine[i] = float64(im.Rank()*1000 + i)
			}
			im.SyncImages(allRanks(w))
			for trial := 0; trial < 5; trial++ {
				peer := rng.Intn(w.NumImages())
				off := rng.Intn(n)
				ln := rng.Intn(n-off) + 1
				dst := vals[:ln]
				Get(im, co, peer, off, dst)
				for i := 0; i < ln; i++ {
					if dst[i] != float64(peer*1000+off+i) {
						ok = false
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func allRanks(w *World) []int {
	out := make([]int, w.NumImages())
	for i := range out {
		out[i] = i
	}
	return out
}

func TestSizeOf(t *testing.T) {
	if sizeOf[int8]() != 1 || sizeOf[bool]() != 1 {
		t.Fatal("1-byte types")
	}
	if sizeOf[int16]() != 2 || sizeOf[uint16]() != 2 {
		t.Fatal("2-byte types")
	}
	if sizeOf[float32]() != 4 || sizeOf[int32]() != 4 {
		t.Fatal("4-byte types")
	}
	if sizeOf[float64]() != 8 || sizeOf[int64]() != 8 {
		t.Fatal("8-byte types")
	}
	type weird struct{ a, b float64 }
	if sizeOf[weird]() != 8 {
		t.Fatal("default size")
	}
}

func TestViaString(t *testing.T) {
	for v, want := range map[Via]string{ViaConduit: "conduit", ViaShm: "shm", ViaAuto: "auto", Via(9): "via(9)"} {
		if v.String() != want {
			t.Fatalf("%d.String() = %q", int(v), v.String())
		}
	}
}

func TestWorldRejectsInvalidModel(t *testing.T) {
	topo, _ := topology.New(1, 1, 1, 1, topology.PlaceBlock)
	bad := &machine.Model{Name: "bad"}
	if _, err := NewWorld(sim.NewEnv(), bad, topo, nil); err == nil {
		t.Fatal("accepted invalid model")
	}
}

func TestRandomTrafficNoDeadlock(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		w := newTestWorld(t, 3, 4)
		end := w.Run(func(im *Image) {
			rng := rand.New(rand.NewSource(int64(trial*100 + im.Rank())))
			fl := NewFlags(w, fmt.Sprintf("t%d", trial), w.NumImages())
			for i := 0; i < 20; i++ {
				peer := rng.Intn(w.NumImages())
				im.NotifyAdd(fl, peer, im.Rank(), 1, ViaAuto)
				im.Sleep(sim.Time(rng.Intn(500)))
			}
			im.Quiet()
			im.SyncImages(allRanks(w))
		})
		if end <= 0 {
			t.Fatal("no simulated time elapsed")
		}
	}
}

// TestPerPairDeliveryOrdered: successive one-sided operations from one
// image to one target must be delivered in issue order on every path —
// the guarantee PutThenNotify and the collectives build on.
func TestPerPairDeliveryOrdered(t *testing.T) {
	for _, via := range []Via{ViaConduit, ViaAuto} {
		for _, target := range []int{1, 4} { // same node / other node
			w := newTestWorld(t, 2, 4)
			var order []int64
			w.Run(func(im *Image) {
				if im.Rank() == 0 {
					for k := int64(1); k <= 20; k++ {
						k := k
						via := im.resolveVia(target, via)
						im.Sleep(sendOverhead(w.model, via))
						s := w.tr.(*simTransport)
						deliver := route(s, im.Node(), w.topo.NodeOf(target), 8, via, im.Now())
						deliverAt(s, im, deliver, func() { order = append(order, k) }, false)
					}
				}
			})
			for i := range order {
				if order[i] != int64(i+1) {
					t.Fatalf("via %v target %d: delivery order %v", via, target, order)
				}
			}
			if len(order) != 20 {
				t.Fatalf("only %d deliveries", len(order))
			}
		}
	}
}

// TestPutThenNotifyUnderLoad: with heavy cross-traffic saturating the NIC,
// the flag must still never beat its payload.
func TestPutThenNotifyUnderLoad(t *testing.T) {
	w := newTestWorld(t, 2, 8)
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "load", 4096)
		fl := NewFlags(w, "loadfl", 1)
		switch {
		case im.Rank() == 0:
			big := make([]float64, 4096)
			big[4095] = 7.5
			PutThenNotify(im, co, 8, 0, big, fl, 0, 1, ViaConduit)
		case im.Node() == 0:
			// Cross traffic through the same NIC.
			for i := 0; i < 10; i++ {
				Put(im, co, 9, 0, make([]float64, 512), ViaConduit)
			}
			im.Quiet()
		case im.Rank() == 8:
			im.WaitFlagGE(fl, 8, 0, 1)
			if Local(co, im)[4095] != 7.5 {
				t.Error("flag overtook its payload under NIC load")
			}
		}
	})
}

// TestCoarrayMaterializesOnFirstTouch: a coarray declares a slab on every
// image but only the slabs a Put, Get or Local names come to exist; a fresh
// slab reads as zero and bounds are checked against the declared length
// whether or not the slab exists.
func TestCoarrayMaterializesOnFirstTouch(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	const elems = 1024
	w.Run(func(im *Image) {
		co := NewCoarray[float64](w, "lazy", elems)
		fl := NewFlags(w, "lazy-fl", 1)
		switch im.Rank() {
		case 0:
			PutThenNotify(im, co, 1, elems-2, []float64{7, 8}, fl, 0, 1, ViaAuto)
			got := []float64{1, 1}
			Get(im, co, 2, 0, got) // never written: reads zero
			if got[0] != 0 || got[1] != 0 {
				t.Errorf("fresh slab read %v, want zeros", got)
			}
		case 1:
			im.WaitFlagGE(fl, 1, 0, 1)
			if s := Local(co, im); len(s) != elems || s[elems-2] != 7 || s[elems-1] != 8 || s[0] != 0 {
				t.Errorf("slab len %d, tail %v", len(s), s[elems-2:])
			}
		}
	})
	sn := w.Stats().Snapshot()
	if want := int64(2 * elems * 8); sn.CoarrayBytes != want {
		t.Errorf("materialised %d coarray bytes, want %d (images 1 and 2 only)", sn.CoarrayBytes, want)
	}
	if want := int64(8); sn.FlagBytes != want {
		t.Errorf("materialised %d flag bytes, want %d (image 1's row only)", sn.FlagBytes, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds put into a never-touched slab did not panic")
		}
	}()
	co := NewCoarray[float64](w, "lazy", elems)
	Put(w.Image(0), co, 3, elems-1, []float64{1, 2}, ViaAuto)
}

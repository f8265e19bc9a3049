package coll

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

func newWorld(t testing.TB, spec string) *pgas.World {
	t.Helper()
	topo, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// barrierFn is any team barrier implementation under test.
type barrierFn func(v *team.View)

var barriers = map[string]barrierFn{
	"dissemination": func(v *team.View) { BarrierDissemination(v) },
	"linear":        func(v *team.View) { BarrierLinear(v) },
	"tree":          func(v *team.View) { BarrierTree(v) },
	"tournament":    func(v *team.View) { BarrierTournament(v) },
}

// checkBarrier drives episodes of a barrier with randomized skew and
// verifies the fundamental property: no image leaves episode e before every
// image has entered episode e.
func checkBarrier(t *testing.T, w *pgas.World, name string, fn barrierFn, episodes int) {
	t.Helper()
	all := make([]int, w.NumImages())
	for i := range all {
		all[i] = i
	}
	checkBarrierAmong(t, w, name, all, fn, episodes)
}

// checkBarrierAmong is checkBarrier for a barrier among the listed images
// only; the others stay out of it.
func checkBarrierAmong(t *testing.T, w *pgas.World, name string, members []int, fn barrierFn, episodes int) {
	t.Helper()
	entered := make([]int, w.NumImages())
	for i := range entered {
		entered[i] = -1
	}
	w.Run(func(im *pgas.Image) {
		if !slices.Contains(members, im.Rank()) {
			return
		}
		v := team.Initial(w, im)
		rng := rand.New(rand.NewSource(int64(im.Rank()) * 7779))
		for ep := 0; ep < episodes; ep++ {
			im.Sleep(sim.Time(rng.Intn(20000)))
			entered[im.Rank()] = ep
			fn(v)
			for _, r := range members {
				if entered[r] < ep {
					t.Errorf("%s: image %d left episode %d before image %d entered (it is at %d)",
						name, im.Rank(), ep, r, entered[r])
					return
				}
			}
		}
	})
}

func TestBarriersEnforceSynchronization(t *testing.T) {
	for name, fn := range barriers {
		for _, spec := range []string{"16(2)", "16(16)", "24(3)", "7(2)", "1(1)", "13(4)"} {
			t.Run(fmt.Sprintf("%s/%s", name, spec), func(t *testing.T) {
				checkBarrier(t, newWorld(t, spec), name, fn, 4)
			})
		}
	}
}

// TestSubgroupBarriersEnforceSynchronization points the same check at the
// subgroup forms the hierarchy-aware barriers run among their node leaders: a
// strict subgroup of non-contiguous ranks, round flags at an offset.
func TestSubgroupBarriersEnforceSynchronization(t *testing.T) {
	type subgroupFn func(v *team.View, st *State, base int, group []int, myIdx int, ep int64)
	for name, sub := range map[string]subgroupFn{"dissemination": SubgroupDissemination, "linear": SubgroupLinear} {
		for _, group := range [][]int{{1, 4, 6, 9, 11}, {12, 0, 7}, {5}} {
			t.Run(fmt.Sprintf("%s/%v", name, group), func(t *testing.T) {
				const base = 3
				checkBarrierAmong(t, newWorld(t, "13(4)"), name, group, func(v *team.View) {
					st := GetState(v, Alg{"test.sub", name}, base+2+Rounds(len(group)))
					sub(v, st, base, group, slices.Index(group, v.Rank), st.Next())
				}, 4)
			})
		}
	}
}

func TestBarrierOnSubteams(t *testing.T) {
	for name, fn := range barriers {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, "16(2)")
			// Odd/even subteams run disjoint barriers: an odd image must
			// never be blocked by even images.
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				sub := v.Form(int64(im.Rank()%2)+1, -1)
				if im.Rank()%2 == 0 {
					// Even team delays massively; odd team must finish
					// its barriers long before.
					im.Sleep(sim.Time(500) * sim.Microsecond)
				}
				start := im.Now()
				for ep := 0; ep < 3; ep++ {
					fn(sub)
				}
				if im.Rank()%2 == 1 && im.Now()-start > 400*sim.Microsecond {
					t.Errorf("odd image %d blocked %d ns, likely waiting on the even team",
						im.Rank(), im.Now()-start)
				}
			})
		})
	}
}

func TestBarrierMessageCounts(t *testing.T) {
	// E8 validation: dissemination sends n·ceil(log2 n) notifications,
	// linear 2(n−1).
	w := newWorld(t, "16(4)")
	var before trace.Snapshot
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		if im.Rank() == 0 {
			before = w.Stats().Snapshot()
		}
		im.SyncImages(nil) // no-op alignment
		BarrierDissemination(v)
	})
	d := w.Stats().Snapshot().Diff(before)
	wantDiss := int64(16 * 4) // 16 images, ceil(log2 16)=4 rounds
	if got := d.Ops[trace.OpNotify]; got != wantDiss {
		t.Fatalf("dissemination notifications = %d, want %d", got, wantDiss)
	}

	w2 := newWorld(t, "16(4)")
	w2.Run(func(im *pgas.Image) {
		v := team.Initial(w2, im)
		BarrierLinear(v)
	})
	d2 := w2.Stats().Snapshot()
	wantLin := int64(2 * 15)
	if got := d2.Ops[trace.OpNotify]; got != wantLin {
		t.Fatalf("linear notifications = %d, want %d", got, wantLin)
	}
}

// reduceFn is any allreduce implementation under test.
type reduceFn func(v *team.View, buf []float64, op Op[float64])

var reducers = map[string]reduceFn{
	"rd":     func(v *team.View, b []float64, op Op[float64]) { AllreduceRD(v, b, op) },
	"linear": func(v *team.View, b []float64, op Op[float64]) { AllreduceLinear(v, b, op) },
	"tree":   func(v *team.View, b []float64, op Op[float64]) { AllreduceTree(v, b, op) },
	"ring":   func(v *team.View, b []float64, op Op[float64]) { AllreduceRing(v, b, op) },
}

func checkAllreduce(t *testing.T, spec string, name string, fn reduceFn, elems int, op Op[float64], expect func(n, i int) float64) {
	t.Helper()
	w := newWorld(t, spec)
	n := w.NumImages()
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		rng := rand.New(rand.NewSource(int64(im.Rank())))
		for ep := 0; ep < 3; ep++ {
			buf := make([]float64, elems)
			for i := range buf {
				buf[i] = float64((im.Rank() + 1) * (i + 1 + ep)) // deterministic per (rank, elem, ep)
			}
			im.Sleep(sim.Time(rng.Intn(5000)))
			fn(v, buf, op)
			for i := range buf {
				want := expect(n, i+1+ep)
				if math.Abs(buf[i]-want) > 1e-9 {
					t.Errorf("%s/%s ep%d: image %d elem %d = %v, want %v",
						name, spec, ep, im.Rank(), i, buf[i], want)
					return
				}
			}
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	// sum over ranks of (rank+1)*k = k * n(n+1)/2
	expect := func(n, k int) float64 { return float64(k) * float64(n*(n+1)) / 2 }
	for name, fn := range reducers {
		for _, spec := range []string{"16(2)", "8(8)", "7(2)", "12(3)", "1(1)", "24(3)"} {
			t.Run(fmt.Sprintf("%s/%s", name, spec), func(t *testing.T) {
				checkAllreduce(t, spec, name, fn, 33, Sum, expect)
			})
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	expectMax := func(n, k int) float64 { return float64(n * k) }
	expectMin := func(n, k int) float64 { return float64(k) }
	for name, fn := range reducers {
		t.Run(name+"/max", func(t *testing.T) {
			checkAllreduce(t, "12(3)", name, fn, 9, Max, expectMax)
		})
		t.Run(name+"/min", func(t *testing.T) {
			checkAllreduce(t, "12(3)", name, fn, 9, Min, expectMin)
		})
	}
}

func TestAllreduceOnSubteams(t *testing.T) {
	w := newWorld(t, "16(2)")
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		sub := v.Form(int64(im.Rank()%2)+1, -1)
		buf := []float64{float64(im.Rank())}
		AllreduceRD(sub, buf, Sum)
		// Sum of global ranks with my parity: 0+2+...+14=56, 1+3+...+15=64.
		want := 56.0
		if im.Rank()%2 == 1 {
			want = 64.0
		}
		if buf[0] != want {
			t.Errorf("image %d subteam sum = %v, want %v", im.Rank(), buf[0], want)
		}
	})
}

// bcastFn is any broadcast implementation under test.
type bcastFn func(v *team.View, root int, buf []float64)

var bcasters = map[string]bcastFn{
	"binomial": func(v *team.View, r int, b []float64) { BcastBinomial(v, r, b) },
	"linear":   func(v *team.View, r int, b []float64) { BcastLinear(v, r, b) },
	"sag":      func(v *team.View, r int, b []float64) { BcastScatterAllgather(v, r, b) },
}

func checkBcast(t *testing.T, spec, name string, fn bcastFn, elems int) {
	t.Helper()
	w := newWorld(t, spec)
	n := w.NumImages()
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		rng := rand.New(rand.NewSource(int64(im.Rank()) * 31))
		for ep := 0; ep < 4; ep++ {
			root := (ep * 3) % n // varies per episode
			buf := make([]float64, elems)
			if v.Rank == root {
				for i := range buf {
					buf[i] = float64(root*1000 + i + ep)
				}
			}
			im.Sleep(sim.Time(rng.Intn(5000)))
			fn(v, root, buf)
			for i := range buf {
				if buf[i] != float64(root*1000+i+ep) {
					t.Errorf("%s/%s ep%d root%d: image %d elem %d = %v, want %v",
						name, spec, ep, root, im.Rank(), i, buf[i], float64(root*1000+i+ep))
					return
				}
			}
		}
	})
}

func TestBroadcastDeliversFromVaryingRoots(t *testing.T) {
	for name, fn := range bcasters {
		for _, spec := range []string{"16(2)", "8(8)", "7(2)", "1(1)", "24(3)", "13(4)"} {
			t.Run(fmt.Sprintf("%s/%s", name, spec), func(t *testing.T) {
				checkBcast(t, spec, name, fn, 37)
			})
		}
	}
}

func TestBroadcastLargePayload(t *testing.T) {
	for name, fn := range bcasters {
		t.Run(name, func(t *testing.T) {
			checkBcast(t, "12(3)", name, fn, 4096)
		})
	}
}

func TestBroadcastTinyPayloadSAGFallback(t *testing.T) {
	// Fewer elements than images: scatter-allgather must fall back and
	// still deliver.
	checkBcast(t, "16(2)", "sag", bcasters["sag"], 3)
}

func TestRingFallbackTinyVector(t *testing.T) {
	checkAllreduce(t, "16(2)", "ring-tiny", reducers["ring"], 3, Sum,
		func(n, k int) float64 { return float64(k) * float64(n*(n+1)) / 2 })
}

func TestMixedCollectiveSequence(t *testing.T) {
	// Interleave different collectives on the same team: state must not
	// cross-contaminate.
	w := newWorld(t, "12(3)")
	n := w.NumImages()
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		buf := []float64{float64(im.Rank() + 1)}
		BarrierDissemination(v)
		AllreduceRD(v, buf, Sum)
		want := float64(n*(n+1)) / 2
		if buf[0] != want {
			t.Errorf("sum after barrier = %v, want %v", buf[0], want)
		}
		BcastBinomial(v, 2, buf)
		BarrierTree(v)
		AllreduceTree(v, buf, Max)
		if buf[0] != want {
			t.Errorf("max of identical = %v, want %v", buf[0], want)
		}
	})
}

func TestReduceChargesPayloadTime(t *testing.T) {
	w := newWorld(t, "8(2)")
	var smallT, bigT sim.Time
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		small := make([]float64, 1)
		t0 := im.Now()
		AllreduceRD(v, small, Sum)
		if im.Rank() == 0 {
			smallT = im.Now() - t0
		}
		BarrierDissemination(v)
		big := make([]float64, 8192)
		t0 = im.Now()
		AllreduceRD(v, big, Sum)
		if im.Rank() == 0 {
			bigT = im.Now() - t0
		}
	})
	if bigT <= smallT {
		t.Fatalf("8192-elem reduce (%d ns) not dearer than 1-elem (%d ns)", bigT, smallT)
	}
}

func TestRoundsHelper(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 352: 9}
	for n, want := range cases {
		if got := Rounds(n); got != want {
			t.Fatalf("Rounds(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFloorPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 4, 7: 4, 8: 8, 44: 32, 0: 0}
	for n, want := range cases {
		if got := FloorPow2(n); got != want {
			t.Fatalf("FloorPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBucket(t *testing.T) {
	cases := map[int]int{1: 16, 16: 16, 17: 32, 33: 64, 1024: 1024, 1025: 2048}
	for n, want := range cases {
		if got := bucket(n); got != want {
			t.Fatalf("bucket(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBinomialChildren(t *testing.T) {
	if kids := binomialChildren(0, 8); len(kids) != 3 || kids[0] != 1 || kids[1] != 2 || kids[2] != 4 {
		t.Fatalf("children(0,8) = %v", kids)
	}
	if kids := binomialChildren(4, 8); len(kids) != 2 || kids[0] != 5 || kids[1] != 6 {
		t.Fatalf("children(4,8) = %v", kids)
	}
	if kids := binomialChildren(5, 8); len(kids) != 0 {
		t.Fatalf("children(5,8) = %v, want none", kids)
	}
	if kids := binomialChildren(0, 6); len(kids) != 3 {
		t.Fatalf("children(0,6) = %v", kids)
	}
}

func TestChildSlotConsistent(t *testing.T) {
	for n := 2; n <= 20; n++ {
		for r := 1; r < n; r++ {
			parent := r - (r & -r)
			slot := childSlot(parent, r)
			kids := binomialChildren(parent, n)
			if kids[slot] != r {
				t.Fatalf("n=%d r=%d: childSlot=%d but children=%v", n, r, slot, kids)
			}
		}
	}
}

// Property: allreduce(sum) equals the serial sum for random sizes and team
// shapes, for every algorithm.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := rng.Intn(4) + 1
		per := rng.Intn(4) + 1
		elems := rng.Intn(50) + 1
		algs := []reduceFn{reducers["rd"], reducers["linear"], reducers["tree"], reducers["ring"]}
		alg := algs[rng.Intn(len(algs))]
		w := newWorld(t, fmt.Sprintf("%d(%d)", nodes*per, nodes))
		n := w.NumImages()
		inputs := make([][]float64, n)
		for r := range inputs {
			inputs[r] = make([]float64, elems)
			for i := range inputs[r] {
				inputs[r][i] = float64(rng.Intn(100)) - 50
			}
		}
		want := make([]float64, elems)
		for _, in := range inputs {
			for i, x := range in {
				want[i] += x
			}
		}
		ok := true
		w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			buf := append([]float64(nil), inputs[im.Rank()]...)
			alg(v, buf, Sum)
			for i := range buf {
				if math.Abs(buf[i]-want[i]) > 1e-6 {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceToRootCorrect(t *testing.T) {
	for _, spec := range []string{"16(2)", "8(8)", "7(2)", "24(3)", "1(1)"} {
		t.Run(spec, func(t *testing.T) {
			w := newWorld(t, spec)
			n := w.NumImages()
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				for ep := 0; ep < 5; ep++ {
					root := (ep * 3) % n
					buf := []float64{float64(im.Rank() + 1)}
					ReduceToRoot(v, root, buf, Sum)
					if v.Rank == root {
						want := float64(n*(n+1)) / 2
						if buf[0] != want {
							t.Errorf("%s ep%d root%d: result = %v, want %v", spec, ep, root, buf[0], want)
							return
						}
					}
				}
			})
		})
	}
}

func TestReduceToRootSkewedMembers(t *testing.T) {
	// A fast leaf racing many episodes ahead must not corrupt a slow
	// parent's pending contribution (credit-gating test).
	w := newWorld(t, "8(2)")
	n := w.NumImages()
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		rng := rand.New(rand.NewSource(int64(im.Rank()) * 99))
		for ep := 0; ep < 6; ep++ {
			if im.Rank() == 2 {
				im.Sleep(sim.Time(50000)) // slow internal node
			} else {
				im.Sleep(sim.Time(rng.Intn(2000)))
			}
			buf := []float64{float64(im.Rank() + 1)}
			ReduceToRoot(v, 0, buf, Sum)
			if v.Rank == 0 {
				want := float64(n*(n+1)) / 2
				if buf[0] != want {
					t.Fatalf("ep%d: result = %v, want %v", ep, buf[0], want)
				}
			}
		}
	})
}

func TestAllgatherRingCorrect(t *testing.T) {
	for _, spec := range []string{"16(2)", "8(8)", "7(2)", "12(3)", "1(1)"} {
		t.Run(spec, func(t *testing.T) {
			w := newWorld(t, spec)
			n := w.NumImages()
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				for ep := 0; ep < 3; ep++ {
					mine := []float64{float64(im.Rank()*100 + ep), float64(im.Rank())}
					out := make([]float64, 2*n)
					AllgatherRing(v, mine, out)
					for r := 0; r < n; r++ {
						if out[2*r] != float64(r*100+ep) || out[2*r+1] != float64(r) {
							t.Errorf("%s ep%d: block %d = %v", spec, ep, r, out[2*r:2*r+2])
							return
						}
					}
				}
			})
		})
	}
}

package caf

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// TestAsyncIntrinsicsAgreeWithBlocking checks each Async intrinsic against
// its blocking twin at the public API level, with compute overlapping the
// in-flight operation.
func TestAsyncIntrinsicsAgreeWithBlocking(t *testing.T) {
	cfg := Config{Spec: "16(2)"}
	type result struct {
		sum, max, min []float64
		bc            []float64
		gather        []float64
		isum          []int64
	}
	run := func(async bool) []result {
		results := make([]result, 16)
		_, err := Run(cfg, func(im *Image) {
			me := im.ThisImage()
			n := im.NumImages()
			sum := []float64{float64(me), float64(me * 2)}
			max := []float64{float64(me)}
			min := []float64{float64(me)}
			bc := []float64{0}
			if me == 3 {
				bc[0] = 99
			}
			mine := []float64{float64(me * 10)}
			gather := make([]float64, n)
			isum := []int64{int64(me)}
			if async {
				h1 := im.CoSumAsync(sum)
				im.Compute(10000)
				h1.Wait()
				h2 := im.CoMaxAsync(max)
				h3 := im.CoMinAsync(min)
				im.Compute(10000)
				h3.Wait()
				h2.Wait()
				hb := im.CoBroadcastAsync(bc, 3)
				hg := im.CoAllgatherAsync(mine, gather)
				hi := CoSumAsyncT(im, isum)
				im.Compute(10000)
				hb.Wait()
				hg.Wait()
				hi.Wait()
			} else {
				im.CoSum(sum)
				im.CoMax(max)
				im.CoMin(min)
				im.CoBroadcast(bc, 3)
				im.CoAllgather(mine, gather)
				CoSumT(im, isum)
			}
			results[me-1] = result{sum: sum, max: max, min: min, bc: bc, gather: gather, isum: isum}
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	blocking := run(false)
	async := run(true)
	for r := range blocking {
		b, a := blocking[r], async[r]
		for i := range b.sum {
			if math.Float64bits(b.sum[i]) != math.Float64bits(a.sum[i]) {
				t.Errorf("rank %d co_sum[%d]: async %v != blocking %v", r, i, a.sum[i], b.sum[i])
			}
		}
		if b.max[0] != a.max[0] || b.min[0] != a.min[0] {
			t.Errorf("rank %d co_max/co_min: async (%v,%v) != blocking (%v,%v)",
				r, a.max[0], a.min[0], b.max[0], b.min[0])
		}
		if b.bc[0] != a.bc[0] {
			t.Errorf("rank %d co_broadcast: async %v != blocking %v", r, a.bc[0], b.bc[0])
		}
		for i := range b.gather {
			if b.gather[i] != a.gather[i] {
				t.Errorf("rank %d co_allgather[%d]: async %v != blocking %v", r, i, a.gather[i], b.gather[i])
			}
		}
		if b.isum[0] != a.isum[0] {
			t.Errorf("rank %d int64 co_sum: async %v != blocking %v", r, a.isum[0], b.isum[0])
		}
	}
}

// TestAsyncOverlapReducesElapsed: the public-API version of the overlap
// guarantee — compute issued between initiate and wait hides collective
// latency, so the async run finishes strictly sooner.
func TestAsyncOverlapReducesElapsed(t *testing.T) {
	run := func(async bool) int64 {
		// Pinned to the sim backend: the strict inequality is a modeled-
		// timing property; native wall clocks are too noisy for it.
		rep, err := Run(Config{Spec: "32(4)", Backend: BackendSim}, func(im *Image) {
			buf := make([]float64, 256)
			for i := range buf {
				buf[i] = float64(im.ThisImage() + i)
			}
			for ep := 0; ep < 8; ep++ {
				if async {
					h := im.CoSumAsync(buf)
					im.Compute(4e4)
					h.Wait()
				} else {
					im.Compute(4e4)
					im.CoSum(buf)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}
	blocking := run(false)
	overlapped := run(true)
	if overlapped >= blocking {
		t.Fatalf("overlap did not pay at the caf level: overlapped %d ns >= blocking %d ns", overlapped, blocking)
	}
	t.Logf("blocking %d ns, overlapped %d ns (%.2fx)", blocking, overlapped,
		float64(blocking)/float64(overlapped))
}

// TestAsyncInsideChangeTeam: the async intrinsics follow the current team
// like their blocking twins.
func TestAsyncInsideChangeTeam(t *testing.T) {
	_, err := Run(Config{Spec: "16(2)"}, func(im *Image) {
		half := int64(1)
		if im.ThisImage() > 8 {
			half = 2
		}
		tm := im.FormTeam(half)
		im.ChangeTeam(tm, func() {
			v := []float64{1}
			h := im.CoSumAsync(v)
			im.Compute(5000)
			h.Wait()
			if v[0] != 8 {
				t.Errorf("team co_sum = %v, want 8 (per-half team)", v[0])
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAsyncThenBlockingSameKind: a blocking collective issued while a
// split-phase one of the same kind is in flight shares its algorithm state;
// the runtime serialises the two per image in call order, so both complete
// with the right result — on flat (one image per node) and hierarchy-aware
// placements, on both backends, bitwise against the serial reference, over
// enough episodes for every parity region to be reused.
func TestAsyncThenBlockingSameKind(t *testing.T) {
	for _, backend := range []string{BackendSim, BackendNative} {
		for _, spec := range []string{"8(8)", "12(3)"} {
			t.Run(fmt.Sprintf("%s/%s", backend, spec), func(t *testing.T) {
				before := runtime.NumGoroutine()
				_, err := Run(Config{Spec: spec, Backend: backend}, func(im *Image) {
					me, n := im.ThisImage(), im.NumImages()
					tri := float64(n * (n + 1) / 2)
					for ep := 1; ep <= 4; ep++ {
						e := float64(ep)
						a := []float64{float64(me), e}
						b := []float64{float64(10 * me), -e}
						h := im.CoSumAsync(a)
						im.CoSum(b)
						h.Wait()
						if a[0] != tri || a[1] != e*float64(n) || b[0] != 10*tri || b[1] != -e*float64(n) {
							t.Errorf("image %d ep %d: co_sum async %v, blocking %v", me, ep, a, b)
						}
						src1, src2 := 1+ep%n, 1+(ep+3)%n
						ba, bb := []float64{float64(me)}, []float64{float64(-me)}
						h = im.CoBroadcastAsync(ba, src1)
						im.CoBroadcast(bb, src2)
						h.Wait()
						if ba[0] != float64(src1) || bb[0] != float64(-src2) {
							t.Errorf("image %d ep %d: co_broadcast async %v (want %d), blocking %v (want %d)", me, ep, ba, src1, bb, -src2)
						}
						ga, gb := make([]float64, n), make([]float64, n)
						h = im.CoAllgatherAsync([]float64{float64(me) + e}, ga)
						im.CoAllgather([]float64{float64(100*me) - e}, gb)
						h.Wait()
						for r := 1; r <= n; r++ {
							if ga[r-1] != float64(r)+e || gb[r-1] != float64(100*r)-e {
								t.Errorf("image %d ep %d: co_allgather[%d] async %v, blocking %v", me, ep, r, ga[r-1], gb[r-1])
								break
							}
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				awaitGoroutines(t, before) // the images' idle coroutines are gone too
			})
		}
	}
}

// TestAsyncPileUpSameKind: any number of split-phase operations of one kind
// may be in flight on an image; their episodes on the shared algorithm state
// run one at a time in call order, also when a blocking call of the kind
// joins the queue behind two of them. Five handles deep, every allreduce
// algorithm family, flat and hierarchy-aware placements, both backends.
func TestAsyncPileUpSameKind(t *testing.T) {
	const depth = 5
	for _, backend := range []string{BackendSim, BackendNative} {
		for _, spec := range []string{"8(8)", "12(3)"} {
			for _, alg := range []string{"auto", "2level", "3level", "tree", "linear", "nb-rd"} {
				t.Run(fmt.Sprintf("%s/%s/%s", backend, spec, alg), func(t *testing.T) {
					cfg := Config{Spec: spec, Backend: backend}.WithAlgorithm(KindAllreduce, alg)
					_, err := Run(cfg, func(im *Image) {
						me, n := im.ThisImage(), im.NumImages()
						tri := float64(n * (n + 1) / 2)
						var hs [depth]*Handle

						var sums [depth][]float64
						for k := range hs {
							sums[k] = []float64{float64(me * (k + 1)), float64(k)}
							hs[k] = im.CoSumAsync(sums[k])
						}
						for k, h := range hs {
							h.Wait()
							if sums[k][0] != tri*float64(k+1) || sums[k][1] != float64(k*n) {
								t.Errorf("image %d: co_sum handle %d of %d = %v", me, k, depth, sums[k])
							}
						}

						var bcs [depth][]float64
						for k := range hs {
							bcs[k] = []float64{float64(me + 100*k)}
							hs[k] = im.CoBroadcastAsync(bcs[k], 1+k%n)
						}
						for k, h := range hs {
							h.Wait()
							if want := float64(1 + k%n + 100*k); bcs[k][0] != want {
								t.Errorf("image %d: co_broadcast handle %d = %v, want %v", me, k, bcs[k][0], want)
							}
						}

						var gas [depth][]float64
						for k := range hs {
							gas[k] = make([]float64, n)
							hs[k] = im.CoAllgatherAsync([]float64{float64(me + 100*k)}, gas[k])
						}
						for k, h := range hs {
							h.Wait()
							for r := 1; r <= n; r++ {
								if gas[k][r-1] != float64(r+100*k) {
									t.Errorf("image %d: co_allgather handle %d [%d] = %v", me, k, r, gas[k][r-1])
									break
								}
							}
						}

						// Two in flight, then a blocking call of each kind.
						a, b, c := []float64{float64(me)}, []float64{float64(2 * me)}, []float64{float64(3 * me)}
						h1, h2 := im.CoSumAsync(a), im.CoSumAsync(b)
						im.CoSum(c)
						h1.Wait()
						h2.Wait()
						if a[0] != tri || b[0] != 2*tri || c[0] != 3*tri {
							t.Errorf("image %d: co_sum async, async, blocking = %v %v %v", me, a, b, c)
						}
						a, b, c = []float64{float64(me)}, []float64{float64(2 * me)}, []float64{float64(3 * me)}
						h1, h2 = im.CoBroadcastAsync(a, 1), im.CoBroadcastAsync(b, 2)
						im.CoBroadcast(c, 3)
						h1.Wait()
						h2.Wait()
						if a[0] != 1 || b[0] != 4 || c[0] != 9 {
							t.Errorf("image %d: co_broadcast async, async, blocking = %v %v %v", me, a, b, c)
						}
						ga, gb, gc := make([]float64, n), make([]float64, n), make([]float64, n)
						h1 = im.CoAllgatherAsync([]float64{float64(me)}, ga)
						h2 = im.CoAllgatherAsync([]float64{float64(2 * me)}, gb)
						im.CoAllgather([]float64{float64(3 * me)}, gc)
						h1.Wait()
						h2.Wait()
						for r := 1; r <= n; r++ {
							if ga[r-1] != float64(r) || gb[r-1] != float64(2*r) || gc[r-1] != float64(3*r) {
								t.Errorf("image %d: co_allgather[%d] async, async, blocking = %v %v %v", me, r, ga[r-1], gb[r-1], gc[r-1])
								break
							}
						}
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestAsyncTunedAlgorithm: Tuning pins the async path like the blocking
// path — an nb alias selected through WithAlgorithm works on both.
func TestAsyncTunedAlgorithm(t *testing.T) {
	cfg := Config{Spec: "8(2)"}.WithAlgorithm(KindAllreduce, "nb-rd")
	_, err := Run(cfg, func(im *Image) {
		v := []float64{1}
		im.CoSum(v) // blocking call dispatched through the nb alias
		if v[0] != 8 {
			t.Errorf("tuned blocking co_sum = %v, want 8", v[0])
		}
		h := im.CoSumAsync(v)
		h.Wait()
		if v[0] != 64 {
			t.Errorf("tuned async co_sum = %v, want 64", v[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

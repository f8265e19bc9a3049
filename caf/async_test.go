package caf

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cafteams/internal/pgas"
)

// TestAsyncIntrinsicsAgreeWithBlocking checks every kind through Async
// against its blocking twin at the public API level, bitwise, on both
// backends: the async run initiates every call, overlaps compute with the
// whole batch in flight and completes the handles in reverse order. Then the
// refusals: an out-of-range root or a team with a failed member panics out of
// Async itself, with no operation left pending.
func TestAsyncIntrinsicsAgreeWithBlocking(t *testing.T) {
	const n = 16
	floats := func(xs ...[]float64) func() []uint64 {
		return func() (w []uint64) {
			for _, x := range xs {
				for _, v := range x {
					w = append(w, math.Float64bits(v))
				}
			}
			return w
		}
	}
	ints := func(x []int64) func() []uint64 {
		return func() (w []uint64) {
			for _, v := range x {
				w = append(w, uint64(v))
			}
			return w
		}
	}
	// Each case fills fresh buffers on image me and returns one call and the
	// bits of everything the call writes.
	cases := []struct {
		name string
		prep func(im *Image, me int) (call func(), bits func() []uint64)
	}{
		{"co_sum", func(im *Image, me int) (func(), func() []uint64) {
			a := []float64{float64(me), float64(2 * me)}
			return func() { im.CoSum(a) }, floats(a)
		}},
		{"co_max", func(im *Image, me int) (func(), func() []uint64) {
			a := []float64{float64(me), float64(-me)}
			return func() { im.CoMax(a) }, floats(a)
		}},
		{"co_min", func(im *Image, me int) (func(), func() []uint64) {
			a := []float64{float64(me), float64(-me)}
			return func() { im.CoMin(a) }, floats(a)
		}},
		{"co_sum(result_image)", func(im *Image, me int) (func(), func() []uint64) {
			a := []float64{float64(me), float64(-3 * me)}
			return func() { im.CoSumTo(a, 5) }, floats(a)
		}},
		{"co_reduce", func(im *Image, me int) (func(), func() []uint64) {
			a := []int64{int64(7 * me), int64(me * me)}
			return func() {
				CoReduceT(im, a, "xor", func(dst, src []int64) {
					for i := range dst {
						dst[i] ^= src[i]
					}
				})
			}, ints(a)
		}},
		{"co_broadcast", func(im *Image, me int) (func(), func() []uint64) {
			a := []float64{0, 0}
			if me == 3 {
				a[0], a[1] = 99, -1
			}
			return func() { im.CoBroadcast(a, 3) }, floats(a)
		}},
		{"co_allgather", func(im *Image, me int) (func(), func() []uint64) {
			mine, out := []float64{float64(10 * me)}, make([]float64, n)
			return func() { im.CoAllgather(mine, out) }, floats(mine, out)
		}},
		{"co_scatter", func(im *Image, me int) (func(), func() []uint64) {
			send, recv := make([]float64, 2*n), make([]float64, 2)
			for i := range send {
				send[i] = float64(100*me + i)
			}
			return func() { im.CoScatter(send, recv, 4) }, floats(recv)
		}},
		{"co_gather", func(im *Image, me int) (func(), func() []uint64) {
			send, recv := []float64{float64(me), float64(me * me)}, make([]float64, 2*n)
			return func() { im.CoGather(send, recv, 6) }, floats(send, recv)
		}},
		{"co_alltoall", func(im *Image, me int) (func(), func() []uint64) {
			send, recv := make([]float64, n), make([]float64, n)
			for j := range send {
				send[j] = float64(100*me + j)
			}
			return func() { im.CoAlltoall(send, recv) }, floats(recv)
		}},
		{"co_scan", func(im *Image, me int) (func(), func() []uint64) {
			a := []float64{float64(me), 1}
			return func() { im.CoScan(a, false) }, floats(a)
		}},
		{"co_scan(exclusive)", func(im *Image, me int) (func(), func() []uint64) {
			a := []float64{float64(me), 1}
			return func() { im.CoScan(a, true) }, floats(a)
		}},
		{"sync all", func(im *Image, me int) (func(), func() []uint64) {
			return im.SyncAll, floats()
		}},
		{"sync images", func(im *Image, me int) (func(), func() []uint64) {
			return func() { im.SyncImages([]int{(me+n-2)%n + 1, me%n + 1}) }, floats()
		}},
		{"int64 co_sum", func(im *Image, me int) (func(), func() []uint64) {
			a := []int64{int64(me), -int64(me)}
			return func() { CoSumT(im, a) }, ints(a)
		}},
	}
	run := func(backend string, async bool) [][][]uint64 {
		results := make([][][]uint64, n)
		_, err := Run(Config{Spec: "16(2)", Backend: backend}, func(im *Image) {
			me := im.ThisImage()
			bits := make([]func() []uint64, len(cases))
			hs := make([]*Handle, len(cases))
			for i, c := range cases {
				var call func()
				call, bits[i] = c.prep(im, me)
				if async {
					hs[i] = im.Async(call)
				} else {
					call()
				}
			}
			if async {
				im.Compute(10000)
				for i := range hs {
					hs[len(hs)-1-i].Wait()
				}
			}
			results[me-1] = make([][]uint64, len(cases))
			for i := range cases {
				results[me-1][i] = bits[i]()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	for _, backend := range []string{BackendSim, BackendNative} {
		blocking, async := run(backend, false), run(backend, true)
		for r := range blocking {
			for i, c := range cases {
				if !slices.Equal(blocking[r][i], async[r][i]) {
					t.Errorf("%s: image %d %s: async %x != blocking %x", backend, r+1, c.name, async[r][i], blocking[r][i])
				}
			}
		}
	}

	for _, backend := range []string{BackendSim, BackendNative} {
		_, err := Run(Config{Spec: "4(2)", Backend: backend}, func(im *Image) {
			refused := func(what string, op func()) (r any) {
				defer func() {
					r = recover()
					if pending := im.Progress(); pending != 0 {
						t.Errorf("%s: image %d: %s left %d operations pending", backend, im.ThisImage(), what, pending)
					}
				}()
				im.Async(op)
				t.Errorf("%s: image %d: Async initiated %s", backend, im.ThisImage(), what)
				return nil
			}
			r := refused("a scatter from image 5 of 4", func() { im.CoScatter(make([]float64, 4), make([]float64, 1), 5) })
			if msg, _ := r.(string); !strings.Contains(msg, "outside 1..4") {
				t.Errorf("%s: image %d: out-of-range root raised %v", backend, im.ThisImage(), r)
			}
			// Every image checked the root before image 2 fails; on the native
			// backend a barrier still draining elsewhere may observe the failure.
			if st := im.WithStat(im.SyncAll); st != StatOK && st != StatFailedImage {
				t.Errorf("%s: image %d: barrier returned %v", backend, im.ThisImage(), st)
			}
			if im.ThisImage() == 2 {
				panic("image 2 fails")
			}
			im.AwaitFailedImages(1)
			r = refused("a co_sum over a failed member", func() { im.CoSum([]float64{1}) })
			if pgas.AsFailedImageError(r) == nil {
				t.Errorf("%s: image %d: co_sum over a failed member raised %v", backend, im.ThisImage(), r)
			}
		})
		var fre *FailedRunError
		if !errors.As(err, &fre) || len(fre.Failures) != 1 {
			t.Errorf("%s: Run error = %v, want image 2's failure alone", backend, err)
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
						h = im.Async(func() { im.CoBroadcast(ba, src1) })
						im.CoBroadcast(bb, src2)
						h.Wait()
						if ba[0] != float64(src1) || bb[0] != float64(-src2) {
							t.Errorf("image %d ep %d: co_broadcast async %v (want %d), blocking %v (want %d)", me, ep, ba, src1, bb, -src2)
						}
						ga, gb := make([]float64, n), make([]float64, n)
						h = im.Async(func() { im.CoAllgather([]float64{float64(me) + e}, ga) })
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
							hs[k] = im.Async(func() { im.CoBroadcast(bcs[k], 1+k%n) })
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
							hs[k] = im.Async(func() { im.CoAllgather([]float64{float64(me + 100*k)}, gas[k]) })
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
						h1, h2 = im.Async(func() { im.CoBroadcast(a, 1) }), im.Async(func() { im.CoBroadcast(b, 2) })
						im.CoBroadcast(c, 3)
						h1.Wait()
						h2.Wait()
						if a[0] != 1 || b[0] != 4 || c[0] != 9 {
							t.Errorf("image %d: co_broadcast async, async, blocking = %v %v %v", me, a, b, c)
						}
						ga, gb, gc := make([]float64, n), make([]float64, n), make([]float64, n)
						h1 = im.Async(func() { im.CoAllgather([]float64{float64(me)}, ga) })
						h2 = im.Async(func() { im.CoAllgather([]float64{float64(2 * me)}, gb) })
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

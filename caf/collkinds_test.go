package caf

import (
	"fmt"
	"testing"
)

// TestScatterGatherRoundTrip: scattering a vector from image 3 and
// gathering it back onto image 2 reproduces the original, across hierarchy
// levels and explicit algorithms.
func TestScatterGatherRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		flat bool
	}{
		{name: "auto-dense", cfg: Config{Spec: "16(2)"}},
		{name: "flat", cfg: Config{Spec: "16(2)"}, flat: true},
		{name: "binomial", cfg: Config{Spec: "9(3)"}.
			WithAlgorithm(KindScatter, "binomial").WithAlgorithm(KindGather, "binomial")},
		{name: "2level", cfg: Config{Spec: "12(3)"}.
			WithAlgorithm(KindScatter, "2level").WithAlgorithm(KindGather, "2level")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := Run
			if tc.flat {
				run = RunFlat
			}
			const elems = 5
			_, err := run(tc.cfg, func(im *Image) {
				n := im.NumImages()
				var send []float64
				if im.ThisImage() == 3 {
					send = make([]float64, n*elems)
					for i := range send {
						send[i] = float64(i + 1)
					}
				}
				recv := make([]float64, elems)
				im.CoScatter(send, recv, 3)
				for i, x := range recv {
					if want := float64((im.ThisImage()-1)*elems + i + 1); x != want {
						t.Errorf("image %d scatter elem %d = %v, want %v", im.ThisImage(), i, x, want)
						return
					}
				}
				var back []float64
				if im.ThisImage() == 2 {
					back = make([]float64, n*elems)
				}
				im.CoGather(recv, back, 2)
				if im.ThisImage() == 2 {
					for i, x := range back {
						if want := float64(i + 1); x != want {
							t.Errorf("gather elem %d = %v, want %v", i, x, want)
							return
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAlltoallTransposes: the personalized exchange delivers block j of
// image i to block i of image j — the distributed transpose identity.
func TestAlltoallTransposes(t *testing.T) {
	for _, alg := range []string{"pairwise", "bruck", "2level"} {
		t.Run(alg, func(t *testing.T) {
			const elems = 3
			cfg := Config{Spec: "12(3)"}.WithAlgorithm(KindAlltoall, alg)
			_, err := Run(cfg, func(im *Image) {
				n := im.NumImages()
				me := im.ThisImage()
				send := make([]float64, n*elems)
				for d := 0; d < n; d++ {
					for i := 0; i < elems; i++ {
						send[d*elems+i] = float64(me*1000 + (d+1)*10 + i)
					}
				}
				recv := make([]float64, n*elems)
				im.CoAlltoall(send, recv)
				for s := 0; s < n; s++ {
					for i := 0; i < elems; i++ {
						if got, want := recv[s*elems+i], float64((s+1)*1000+me*10+i); got != want {
							t.Errorf("image %d block %d elem %d = %v, want %v", me, s, i, got, want)
							return
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScanPrefixSums: inclusive and exclusive CoScan produce the prefix
// sums over image order on every algorithm, including the generic int64
// form, and CoScanReduceT the prefix bitwise ORs of a caller's operation.
func TestScanPrefixSums(t *testing.T) {
	for _, alg := range []string{"linear", "rd", "2level"} {
		for _, exclusive := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/excl=%v", alg, exclusive), func(t *testing.T) {
				cfg := Config{Spec: "12(3)"}.WithAlgorithm(KindScan, alg)
				_, err := Run(cfg, func(im *Image) {
					me := im.ThisImage()
					x := []float64{float64(me), float64(me * 10)}
					im.CoScan(x, exclusive)
					upTo := me // inclusive: sum over images 1..me
					if exclusive {
						upTo = me - 1
					}
					want := []float64{float64(upTo * (upTo + 1) / 2), float64(upTo * (upTo + 1) * 5)}
					if exclusive && me == 1 {
						want = []float64{1, 10} // image 1 left unchanged
					}
					if x[0] != want[0] || x[1] != want[1] {
						t.Errorf("image %d scan = %v, want %v", me, x, want)
					}

					y := []int64{int64(me)}
					CoScanT(im, y, exclusive)
					if y[0] != int64(want[0]) {
						t.Errorf("image %d int64 scan = %v, want %v", me, y[0], int64(want[0]))
					}

					// Image i contributes bit i−1: the OR over images 1..upTo
					// is the low upTo bits.
					z := []int64{1 << (me - 1)}
					CoScanReduceT(im, z, "or", func(dst, src []int64) {
						for i := range dst {
							dst[i] |= src[i]
						}
					}, exclusive)
					wantOr := int64(1)<<upTo - 1
					if exclusive && me == 1 {
						wantOr = 1 // image 1 left unchanged
					}
					if z[0] != wantOr {
						t.Errorf("image %d OR scan = %#x, want %#x", me, z[0], wantOr)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestNewKindsValidateEagerly: a Tuning entry naming an unknown algorithm
// for any of the new kinds fails Run before the simulation starts — the
// regression guard for eager WithAlgorithm/Tuning validation.
func TestNewKindsValidateEagerly(t *testing.T) {
	for _, k := range []Kind{KindScatter, KindGather, KindAlltoall, KindScan} {
		cfg := Config{Spec: "4(2)"}.WithAlgorithm(k, "no-such-algorithm")
		ran := false
		_, err := Run(cfg, func(im *Image) { ran = true })
		if err == nil {
			t.Errorf("unknown %v algorithm accepted by Run", k)
		}
		if ran {
			t.Errorf("%v: simulation started despite invalid tuning", k)
		}
	}
	// Known names for the new kinds still pass validation.
	cfg := Config{Spec: "4(2)"}.
		WithAlgorithm(KindScatter, "linear").
		WithAlgorithm(KindGather, "binomial").
		WithAlgorithm(KindAlltoall, "bruck").
		WithAlgorithm(KindScan, "rd")
	if _, err := Run(cfg, func(im *Image) {}); err != nil {
		t.Fatalf("valid tuning rejected: %v", err)
	}
}

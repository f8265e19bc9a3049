package caf

import (
	"testing"

	"cafteams/internal/core"
)

// TestCoSumTAgreesAcrossTypes: the generic int64 and float32 paths must
// agree exactly with the float64 path on integer-valued inputs.
func TestCoSumTAgreesAcrossTypes(t *testing.T) {
	_, err := Run(Config{Spec: "12(3)"}, func(im *Image) {
		const elems = 25
		f64 := make([]float64, elems)
		i64 := make([]int64, elems)
		f32 := make([]float32, elems)
		for i := range f64 {
			val := (im.ThisImage() * (i + 2)) % 64
			f64[i] = float64(val)
			i64[i] = int64(val)
			f32[i] = float32(val)
		}
		im.CoSum(f64)
		CoSumT(im, i64)
		CoSumT(im, f32)
		for i := range f64 {
			if float64(i64[i]) != f64[i] {
				t.Errorf("CoSumT[int64] elem %d = %d, float64 path = %v", i, i64[i], f64[i])
				return
			}
			if float64(f32[i]) != f64[i] {
				t.Errorf("CoSumT[float32] elem %d = %v, float64 path = %v", i, f32[i], f64[i])
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoMaxMinSumToGeneric(t *testing.T) {
	_, err := Run(Config{Spec: "8(2)"}, func(im *Image) {
		x := []int32{int32(im.ThisImage())}
		CoMaxT(im, x)
		if x[0] != 8 {
			t.Errorf("CoMaxT = %d, want 8", x[0])
		}
		CoMinT(im, x)
		if x[0] != 8 { // all hold 8 now
			t.Errorf("CoMinT = %d, want 8", x[0])
		}
		y := []uint64{uint64(im.ThisImage())}
		CoSumToT(im, y, 3)
		if im.ThisImage() == 3 && y[0] != 36 {
			t.Errorf("CoSumToT at image 3 = %d, want 36", y[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoBroadcastTAndAllgatherT(t *testing.T) {
	_, err := Run(Config{Spec: "9(3)"}, func(im *Image) {
		buf := make([]int16, 7)
		if im.ThisImage() == 5 {
			for i := range buf {
				buf[i] = int16(i + 300)
			}
		}
		CoBroadcastT(im, buf, 5)
		for i := range buf {
			if buf[i] != int16(i+300) {
				t.Errorf("image %d: CoBroadcastT elem %d = %d", im.ThisImage(), i, buf[i])
				return
			}
		}
		mine := []int64{int64(im.ThisImage() * 3)}
		out := make([]int64, im.NumImages())
		CoAllgatherT(im, mine, out)
		for r := range out {
			if out[r] != int64((r+1)*3) {
				t.Errorf("CoAllgatherT out[%d] = %d, want %d", r, out[r], (r+1)*3)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoReduceTCustomOp(t *testing.T) {
	_, err := Run(Config{Spec: "8(2)"}, func(im *Image) {
		x := []int64{int64(im.ThisImage())}
		CoReduceT(im, x, "prod", func(dst, src []int64) {
			for i := range dst {
				dst[i] *= src[i]
			}
		})
		if x[0] != 40320 { // 8!
			t.Errorf("CoReduceT product = %d, want 40320", x[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewCoarrayTTypedAllocation(t *testing.T) {
	_, err := Run(Config{Spec: "8(2)"}, func(im *Image) {
		a := NewCoarrayT[int32](im, "A", 4)
		// Same name, different element type: must be a distinct coarray.
		b := NewCoarrayT[float64](im, "A", 4)
		for i := range a.Local(im) {
			a.Local(im)[i] = int32(im.ThisImage()*100 + i)
			b.Local(im)[i] = -1
		}
		im.SyncAll()
		peer := im.ThisImage()%im.NumImages() + 1
		dst := make([]int32, 4)
		a.Get(im, peer, 0, dst)
		for i := range dst {
			if dst[i] != int32(peer*100+i) {
				t.Errorf("typed get from %d: elem %d = %d", peer, i, dst[i])
				return
			}
		}
		im.SyncAll()
		// One-sided typed put into the right neighbor.
		a.Put(im, peer, 0, []int32{int32(-im.ThisImage())})
		im.SyncMemory()
		im.SyncAll()
		left := im.ThisImage() - 1
		if left == 0 {
			left = im.NumImages()
		}
		if got := a.Local(im)[0]; got != int32(-left) {
			t.Errorf("after put, slab[0] = %d, want %d", got, -left)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWithAlgorithmSelection: every registered allreduce algorithm must be
// reachable through the public API and produce the same result.
func TestWithAlgorithmSelection(t *testing.T) {
	for _, name := range Algorithms(KindAllreduce) {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Spec: "16(4)"}.WithAlgorithm(KindAllreduce, name)
			_, err := Run(cfg, func(im *Image) {
				x := make([]float64, 20)
				for i := range x {
					x[i] = float64(im.ThisImage() * (i + 1))
				}
				im.CoSum(x)
				for i := range x {
					if want := float64(136 * (i + 1)); x[i] != want { // 1+..+16 = 136
						t.Errorf("alg %s: elem %d = %v, want %v", name, i, x[i], want)
						return
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWithAlgorithmUnknownNameFails(t *testing.T) {
	_, err := Run(Config{Spec: "4(2)"}.WithAlgorithm(KindBarrier, "no-such-barrier"),
		func(im *Image) {})
	if err == nil {
		t.Fatal("unknown algorithm name accepted by Run")
	}
}

func TestAutoTuningRuns(t *testing.T) {
	// What the decision table picks must be correct on both sides of its
	// payload boundaries, under the hierarchy-aware and the flat runtime; the
	// report counts one decision per image per call, and a flat run's
	// decisions name no hierarchy-aware algorithm.
	const calls = 2 * 3 // co_sum and co_broadcast at three sizes
	for _, run := range []struct {
		name string
		fn   func(Config, func(*Image)) (Report, error)
	}{{"Run", Run}, {"RunFlat", RunFlat}} {
		rep, err := run.fn(Config{Spec: "16(4)", Tuning: AutoTuning()}, func(im *Image) {
			for _, elems := range []int{4, 8192, 1 << 17} {
				x := make([]float64, elems)
				for i := range x {
					x[i] = float64(im.ThisImage())
				}
				im.CoSum(x)
				for i := range x {
					if x[i] != 136 {
						t.Errorf("%s: auto-tuned co_sum (%d elems) = %v, want 136", run.name, elems, x[i])
						return
					}
				}
				buf := make([]float64, elems)
				if im.ThisImage() == 2 {
					for i := range buf {
						buf[i] = float64(i % 97)
					}
				}
				im.CoBroadcast(buf, 2)
				for i := range buf {
					if buf[i] != float64(i%97) {
						t.Errorf("%s: auto-tuned co_broadcast (%d elems) elem %d = %v", run.name, elems, i, buf[i])
						return
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		decisions := int64(0)
		for k, byAlg := range rep.Stats.AutoPicks {
			for i, n := range byAlg {
				if n == 0 {
					continue
				}
				decisions += n
				alg := Algorithms(Kind(k))[i]
				if core.HierarchyAware(alg) && run.name == "RunFlat" {
					t.Errorf("RunFlat with auto tuning ran %s/%s %d times", Kind(k), alg, n)
				}
			}
		}
		if want := int64(calls * rep.Images); decisions != want {
			t.Errorf("%s: %d auto decisions counted, want %d (%d calls x %d images)", run.name, decisions, want, calls, rep.Images)
		}
	}
	// The zero Tuning decides by level and counts nothing.
	rep, err := Run(Config{Spec: "16(4)"}, func(im *Image) { im.CoSum(make([]float64, 4)) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.AutoPicks != (Report{}).Stats.AutoPicks {
		t.Errorf("a run without auto tuning counted auto decisions: %v", rep.Stats.AutoPicks)
	}
}

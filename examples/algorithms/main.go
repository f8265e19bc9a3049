// Algorithm selection and typed collectives: the collective runtime v2 API.
// Every collective kind dispatches through a named-algorithm registry —
// this example sweeps the allreduce table explicitly, then lets the
// measured decision table pick and prints what it decided, and uses the
// generic entry points with int64 and float32 elements.
package main

import (
	"fmt"
	"log"

	"cafteams/caf"
)

func main() {
	// 1. The registry: what is selectable per collective kind.
	for _, k := range []caf.Kind{caf.KindBarrier, caf.KindAllreduce, caf.KindBroadcast} {
		fmt.Printf("%-10s %v\n", k, caf.Algorithms(k))
	}

	// 2. Explicit selection: pin the allreduce algorithm by name and
	// compare simulated cost on a dense 8-images-per-node placement.
	for _, alg := range caf.Algorithms(caf.KindAllreduce) {
		cfg := caf.Config{Spec: "64(8)"}.WithAlgorithm(caf.KindAllreduce, alg)
		rep, err := caf.Run(cfg, func(im *caf.Image) {
			x := make([]float64, 128)
			for i := range x {
				x[i] = float64(im.ThisImage())
			}
			for ep := 0; ep < 4; ep++ {
				im.CoSum(x)
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("allreduce/%-8s %10.2f us\n", alg, float64(rep.Elapsed)/1000)
	}

	// 3. Auto tuning: the runtime reads each call's algorithm from a
	// decision table measured over placements and payload sizes (how the
	// team sits on the machine, and the bytes), and the report counts what
	// it decided — one decision per image per call.
	rep, err := caf.Run(caf.Config{Spec: "64(8)", Tuning: caf.AutoTuning()}, func(im *caf.Image) {
		small := make([]float64, 8)
		large := make([]float64, 1<<15)
		im.CoSum(small)
		im.CoSum(large)
		im.CoBroadcast(large, 1)
		im.SyncAll()
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auto-tuned run: %.2f us\n", float64(rep.Elapsed)/1000)
	for k, byAlg := range rep.Stats.AutoPicks {
		for i, n := range byAlg {
			if n > 0 {
				fmt.Printf("  auto picked %s/%s x%d\n", caf.Kind(k), caf.Algorithms(caf.Kind(k))[i], n/int64(rep.Images))
			}
		}
	}

	// 4. Generic typed collectives: any numeric element type through the
	// same registry (methods cannot be generic in Go, so these are
	// package functions taking the image first).
	_, err = caf.Run(caf.Config{Spec: "16(4)"}, func(im *caf.Image) {
		counts := []int64{int64(im.ThisImage())}
		caf.CoSumT(im, counts)

		weights := make([]float32, 3)
		if im.ThisImage() == 1 {
			weights = []float32{0.5, 0.25, 0.25}
		}
		caf.CoBroadcastT(im, weights, 1)

		hist := caf.NewCoarrayT[int32](im, "hist", 4)
		hist.Local(im)[0] = int32(im.ThisImage())
		im.SyncAll()
		if im.ThisImage() == 1 {
			peer := make([]int32, 1)
			hist.Get(im, 2, 0, peer)
			fmt.Printf("int64 co_sum = %d (want 136), float32 bcast = %v, int32 coarray peer = %d\n",
				counts[0], weights, peer[0])
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}

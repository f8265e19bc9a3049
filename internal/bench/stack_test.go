//go:build !race

package bench

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"

	"cafteams/internal/core"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
)

// stackPad is the headroom TestStackBudget proves: the locals of a frame that
// can still be added to the deepest call chain of a simulated image before a
// 4096-image world's coroutine stacks double.
const stackPad = 256

// runPadded is run called through a frame of stackPad bytes of locals, so a
// passing TestStackBudget means that much headroom, not zero.
//
//go:noinline
func runPadded(run func(*team.View, []float64, int), v *team.View, buf []float64, iters int) {
	var pad [stackPad]byte
	pad[iters%stackPad] = 1 // indexed by a variable: the array stays in the frame
	run(v, buf, iters)
	if pad[(iters+1)%stackPad] > 1 {
		panic("unreachable")
	}
}

func stackBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/stacks:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestStackBudget holds a simulated image to one 4 KB coroutine stack in the
// cells of the scale study (teamsbench -scale, the repository benchmark's
// scale-4k). An image's deepest chain — body, comparator, core.RunX, algorithm,
// coll.Box.PutAt, pgas.PutThenNotify, the transport method, Proc.Sleep, block,
// and under block the event loop delivering somebody else's notify — ends
// close to the 4 KB boundary; a frame more on it and every stack of the world
// is 8 KB, which was +16 MB on scale-4k's peak_rss_mb at PR 20.
//
// Image 0 reads the process's stack memory between two of its episodes, while
// every other image is parked inside the collective or right behind it (the
// collector is off for the cell, so no parked stack has been shrunk). The
// budget admits the node leaders — one image in ScalePerNode, whose chain
// nests the inter-node algorithm inside the leveled one — on 8 KB stacks: that
// reads as two more 4 KB per leader, the slot it left staying with its span.
func TestStackBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-image worlds")
	}
	const (
		images      = 4096
		warm, iters = 3, 6
		budget      = 4096 + 2*4096/ScalePerNode + 128 // bytes per image
	)
	runtime.GC()
	idle := stackBytes()
	// The three of the eleven ScaleKindAlgs cells that tip first as the pad
	// grows (allreduce/rd at 384 bytes, the other two by 448); all eleven
	// take 5 s, more than tier-1 has.
	for _, c := range []struct {
		kind core.Kind
		alg  string
	}{{core.KindAllreduce, "rd"}, {core.KindAllreduce, "2level"}, {core.KindScan, "2level"}} {
		cmp := RegistryComparator(c.kind, c.alg)
		run := cmp.Run
		var alive, sampled int
		var during uint64
		cmp.Run = func(v *team.View, buf []float64, iters int) {
			if v.Rank != 0 {
				alive++
				runPadded(run, v, buf, iters)
				v.Img.Sleep(pgas.Second) // outlive the sample
				alive--
				return
			}
			runPadded(run, v, buf, warm)
			sampled, during = alive, stackBytes()
			runPadded(run, v, buf, iters-warm)
		}
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		_, err := Measure("4096(512)", "sim", cmp, 8, iters)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatal(err)
		}
		if sampled != images-1 {
			t.Fatalf("%s: %d of %d images were alive at the sample", cmp.Name, sampled, images-1)
		}
		per := (during - idle) / images
		t.Logf("%-24s %5d stack bytes per image", cmp.Name, per)
		if per > budget {
			t.Errorf("%s: %d stack bytes per image through a %d-byte pad frame, budget %d: the put chain has outgrown the 4 KB stack",
				cmp.Name, per, stackPad, budget)
		}
	}
}

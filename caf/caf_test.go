package caf

import (
	"math"
	"sort"
	"sync"
	"testing"

	"cafteams/internal/machine"
)

func TestRunBasicIntrinsics(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	rep, err := Run(Config{Spec: "8(2)"}, func(im *Image) {
		mu.Lock()
		seen[im.ThisImage()] = im.Node()
		mu.Unlock()
		if im.NumImages() != 8 {
			t.Errorf("NumImages = %d, want 8", im.NumImages())
		}
		if im.GlobalImage() != im.ThisImage() {
			t.Error("initial team index must equal global index")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != 8 {
		t.Fatalf("report images = %d", rep.Images)
	}
	if len(seen) != 8 || seen[1] != 0 || seen[8] != 1 {
		t.Fatalf("image placement wrong: %v", seen)
	}
}

func TestRunConfigErrors(t *testing.T) {
	if _, err := Run(Config{}, func(im *Image) {}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(Config{Spec: "abc"}, func(im *Image) {}); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestCoSumAndSyncAll(t *testing.T) {
	_, err := Run(Config{Spec: "16(2)"}, func(im *Image) {
		x := []float64{float64(im.ThisImage())}
		im.CoSum(x)
		if x[0] != 136 { // 1+2+...+16
			t.Errorf("co_sum = %v, want 136", x[0])
		}
		im.SyncAll()
		x[0] = float64(im.ThisImage())
		im.CoMax(x)
		if x[0] != 16 {
			t.Errorf("co_max = %v, want 16", x[0])
		}
		im.CoMin(x)
		if x[0] != 16 { // all images now hold 16
			t.Errorf("co_min = %v, want 16", x[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoBroadcast(t *testing.T) {
	_, err := Run(Config{Spec: "12(3)"}, func(im *Image) {
		buf := make([]float64, 5)
		if im.ThisImage() == 4 {
			for i := range buf {
				buf[i] = float64(i + 100)
			}
		}
		im.CoBroadcast(buf, 4)
		for i := range buf {
			if buf[i] != float64(i+100) {
				t.Errorf("image %d: broadcast elem %d = %v", im.ThisImage(), i, buf[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoReduceCustomOp(t *testing.T) {
	_, err := Run(Config{Spec: "8(2)"}, func(im *Image) {
		x := []float64{float64(im.ThisImage())}
		im.CoReduce(x, "prod", func(dst, src []float64) {
			for i := range dst {
				dst[i] *= src[i]
			}
		})
		if x[0] != 40320 { // 8!
			t.Errorf("product = %v, want 40320", x[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFormAndChangeTeam(t *testing.T) {
	_, err := Run(Config{Spec: "16(2)"}, func(im *Image) {
		parity := int64(im.GlobalImage() % 2)
		tm := im.FormTeam(parity + 1)
		if tm.NumImages() != 8 {
			t.Errorf("subteam size = %d", tm.NumImages())
		}
		im.ChangeTeam(tm, func() {
			if im.NumImages() != 8 {
				t.Errorf("NumImages inside change team = %d", im.NumImages())
			}
			x := []float64{1}
			im.CoSum(x)
			if x[0] != 8 {
				t.Errorf("team co_sum = %v, want 8", x[0])
			}
			im.SyncAll()
		})
		if im.NumImages() != 16 {
			t.Error("team stack not restored after change team")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFormTeamIndexed(t *testing.T) {
	_, err := Run(Config{Spec: "4(2)"}, func(im *Image) {
		tm := im.FormTeamIndexed(1, 5-im.ThisImage()) // reverse order
		if got, want := tm.ThisImage(), 5-im.ThisImage(); got != want {
			t.Errorf("indexed rank = %d, want %d", got, want)
		}
		if tm.TeamNumber() != 1 {
			t.Error("team number wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoarrayPutGet(t *testing.T) {
	_, err := Run(Config{Spec: "8(2)"}, func(im *Image) {
		a := im.NewCoarray("A", 8)
		mine := a.Local(im)
		for i := range mine {
			mine[i] = float64(im.ThisImage()*10 + i)
		}
		im.SyncAll()
		// Read the right neighbor's slab.
		peer := im.ThisImage()%im.NumImages() + 1
		dst := make([]float64, 8)
		a.Get(im, peer, 0, dst)
		for i := range dst {
			if dst[i] != float64(peer*10+i) {
				t.Errorf("get from %d: elem %d = %v", peer, i, dst[i])
			}
		}
		im.SyncAll() // reads done before anyone overwrites
		// One-sided put into the left neighbor, then global sync.
		left := im.ThisImage() - 1
		if left == 0 {
			left = im.NumImages()
		}
		a.Put(im, left, 0, []float64{float64(im.ThisImage())})
		im.SyncMemory()
		im.SyncAll()
		right := im.ThisImage()%im.NumImages() + 1
		if mine[0] != float64(right) {
			t.Errorf("image %d slab[0] = %v, want %v", im.ThisImage(), mine[0], float64(right))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTeamCoarrayScopedAllocation(t *testing.T) {
	_, err := Run(Config{Spec: "8(2)"}, func(im *Image) {
		tm := im.FormTeam(int64(im.GlobalImage()%2) + 1)
		im.ChangeTeam(tm, func() {
			b := im.NewCoarray("B", 4)
			local := b.Local(im)
			local[0] = float64(im.ThisImage())
			im.SyncAll()
			// Team-relative image 1's value via get.
			dst := make([]float64, 1)
			b.Get(im, 1, 0, dst)
			if dst[0] != 1 {
				t.Errorf("team coarray get = %v, want 1", dst[0])
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSyncImagesPairs(t *testing.T) {
	_, err := Run(Config{Spec: "4(2)"}, func(im *Image) {
		// Ring handshake: everyone syncs with both neighbors.
		n := im.NumImages()
		left := (im.ThisImage()-2+n)%n + 1
		right := im.ThisImage()%n + 1
		im.SyncImages([]int{left, right})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGridTeams(t *testing.T) {
	_, err := Run(Config{Spec: "16(2)"}, func(im *Image) {
		row, col, err := im.GridTeams(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		r := (im.GlobalImage() - 1) / 4
		c := (im.GlobalImage() - 1) % 4
		if row.ThisImage() != c+1 || col.ThisImage() != r+1 {
			t.Errorf("grid ranks wrong: row %d col %d", row.ThisImage(), col.ThisImage())
		}
		im.ChangeTeam(row, func() {
			x := []float64{float64(im.GlobalImage())}
			im.CoSum(x)
			want := float64(4*r*4 + 1 + 2 + 3 + 4)
			if x[0] != want {
				t.Errorf("row sum = %v, want %v", x[0], want)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunFlatVsTwoLevelPerformance(t *testing.T) {
	// The public entry points must preserve the paper's headline: the
	// hierarchy-aware runtime beats the flat baseline on dense placements.
	body := func(im *Image) {
		for i := 0; i < 10; i++ {
			im.SyncAll()
		}
	}
	// Pinned to the sim backend: the assertion is about the machine
	// model's timing, not wall-clock scheduling noise.
	two, err := Run(Config{Spec: "64(8)", Backend: BackendSim}, body)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := RunFlat(Config{Spec: "64(8)", Backend: BackendSim}, body)
	if err != nil {
		t.Fatal(err)
	}
	if two.Elapsed >= flat.Elapsed {
		t.Fatalf("two-level (%d ns) not faster than flat (%d ns)", two.Elapsed, flat.Elapsed)
	}
}

func TestConduitSelection(t *testing.T) {
	body := func(im *Image) {
		for i := 0; i < 5; i++ {
			im.SyncAll()
		}
	}
	// Pinned to the sim backend: conduit costs only exist in the model.
	rdma, err := RunFlat(Config{Spec: "16(2)", Conduit: machine.ConduitGASNetRDMA, Backend: BackendSim}, body)
	if err != nil {
		t.Fatal(err)
	}
	am, err := RunFlat(Config{Spec: "16(2)", Conduit: machine.ConduitGASNetAM, Backend: BackendSim}, body)
	if err != nil {
		t.Fatal(err)
	}
	if am.Elapsed <= rdma.Elapsed {
		t.Fatalf("AM conduit (%d) should be slower than RDMA (%d)", am.Elapsed, rdma.Elapsed)
	}
}

func TestReportStats(t *testing.T) {
	rep, err := Run(Config{Spec: "8(2)"}, func(im *Image) {
		im.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.TotalMsgs() == 0 {
		t.Fatal("no messages recorded for a barrier")
	}
	if rep.Stats.FlagBytes == 0 || rep.Stats.CoarrayBytes != 0 {
		t.Fatalf("a barrier materialises flag rows and no coarray slab, got %d and %d bytes",
			rep.Stats.FlagBytes, rep.Stats.CoarrayBytes)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestImagesOnSingleNode(t *testing.T) {
	rep, err := Run(Config{Images: 6}, func(im *Image) {
		if im.Node() != 0 {
			t.Errorf("image %d on node %d, want 0", im.ThisImage(), im.Node())
		}
		x := []float64{1}
		im.CoSum(x)
		if x[0] != 6 {
			t.Errorf("co_sum = %v", x[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != 6 {
		t.Fatal("wrong image count")
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	var times []int64
	var mu sync.Mutex
	_, err := Run(Config{Images: 2}, func(im *Image) {
		im.Compute(1e6)
		mu.Lock()
		times = append(times, im.Now())
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	if times[0] <= 0 {
		t.Fatal("compute charged no time")
	}
}

func TestMonteCarloPiConverges(t *testing.T) {
	// A miniature end-to-end application through the public API.
	_, err := Run(Config{Spec: "8(2)"}, func(im *Image) {
		const perImage = 2000
		inside := 0
		// Deterministic per-image quasi-random points.
		x, y := float64(im.ThisImage())*0.123, float64(im.ThisImage())*0.456
		for i := 0; i < perImage; i++ {
			x = math.Mod(x+0.754877666, 1)
			y = math.Mod(y+0.569840296, 1)
			if x*x+y*y < 1 {
				inside++
			}
		}
		im.Compute(perImage * 10)
		sum := []float64{float64(inside)}
		im.CoSum(sum)
		pi := 4 * sum[0] / (8 * perImage)
		if math.Abs(pi-math.Pi) > 0.05 {
			t.Errorf("pi estimate %v too far off", pi)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoAllgather(t *testing.T) {
	_, err := Run(Config{Spec: "12(3)"}, func(im *Image) {
		mine := []float64{float64(im.ThisImage() * 7)}
		out := make([]float64, im.NumImages())
		im.CoAllgather(mine, out)
		for r := 0; r < im.NumImages(); r++ {
			if out[r] != float64((r+1)*7) {
				t.Errorf("image %d: out[%d] = %v, want %v", im.ThisImage(), r, out[r], float64((r+1)*7))
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoSumToResultImage(t *testing.T) {
	_, err := Run(Config{Spec: "12(3)"}, func(im *Image) {
		for ep := 0; ep < 3; ep++ {
			target := ep%im.NumImages() + 1
			x := []float64{float64(im.ThisImage())}
			im.CoSumTo(x, target)
			if im.ThisImage() == target && x[0] != 78 { // 1+..+12
				t.Errorf("ep%d: result at image %d = %v, want 78", ep, target, x[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

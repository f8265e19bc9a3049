package coll

import (
	"math/rand"
	"slices"
	"testing"

	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
)

// rootedBlocks is a proper subgroup of a 13-image team whose participants
// speak for non-contiguous blocks of uneven sizes (each led by the
// participant itself); team rank 6 is in none of them.
var (
	rootedGroup  = []int{2, 9, 5, 11, 0}
	rootedBlocks = [][]int{{2, 7}, {9}, {5, 1, 12}, {11, 3}, {0, 4, 8, 10}}
)

// rootedValue is team rank r's element i in episode ep.
func rootedValue(ep, r, i int) float64 { return float64(ep*1000 + r*10 + i) }

// TestSubgroupRootedTrees runs both rooted pairs — SubgroupScatterBinomial and
// SubgroupGatherBinomial, SubgroupScatterLinear and SubgroupGatherLinear — over
// rootedGroup with the root rotating over every participant and skewed
// arrivals, under the injection gate and done wave a scatter caller owes: every
// participant gets its own block and hands forwarded what it holds packed in
// relative order (in the tree its whole subtree, in the linear form its own
// block, the root's included), the gather root gets every other participant's
// ranks and nothing else. The blocks are not consecutive, so the linear root
// packs them.
func TestSubgroupRootedTrees(t *testing.T) {
	for _, form := range []string{"binomial", "linear"} {
		t.Run(form, func(t *testing.T) { runSubgroupRooted(t, form == "linear") })
	}
}

// TestSubgroupAlltoallPairwise runs the pairwise exchange over rootedGroup with
// skewed arrivals, each participant's run for participant i its block's ranks'
// values for i's block's ranks, destination-major: every run lands whole, from
// the participant it names, in the episode it was sent, and each other
// participant's run is packed and unpacked once, in step order.
func TestSubgroupAlltoallPairwise(t *testing.T) {
	const n, episodes, maxBlock = 2, 12, 4
	w := newWorld(t, "13(13)")
	g := len(rootedGroup)
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		myIdx := slices.Index(rootedGroup, v.Rank)
		if myIdx < 0 {
			return
		}
		// run is participant from's run for participant to in episode ep.
		run := func(ep, from, to int) []float64 {
			var out []float64
			for _, d := range rootedBlocks[to] {
				for _, s := range rootedBlocks[from] {
					for i := range n {
						out = append(out, rootedValue(ep, s, d*n+i))
					}
				}
			}
			return out
		}
		st := GetState(v, Alg{"test.a2a"}, g-1)
		rng := rand.New(rand.NewSource(int64(v.Rank) * 7919))
		for ep := 0; ep < episodes; ep++ {
			if rng.Intn(3) == 0 {
				im.Sleep(sim.Time(rng.Intn(300_000)))
			} else {
				im.Sleep(sim.Time(rng.Intn(5_000)))
			}
			st.Next()
			var packed, unpacked []int
			SubgroupAlltoallPairwise(st, 0, NewBox[float64](st, "", n, (g-1)*maxBlock*maxBlock), rootedGroup, myIdx, maxBlock*maxBlock,
				func(i int) []float64 {
					packed = append(packed, i)
					return run(ep, myIdx, i)
				},
				func(i int, got []float64) {
					unpacked = append(unpacked, i)
					if want := run(ep, i, myIdx); !slices.Equal(got[:len(want)], want) {
						t.Errorf("ep%d rank %d: run from participant %d is %v, want %v", ep, v.Rank, i, got[:len(want)], want)
					}
				})
			for s := 1; s < g; s++ {
				if len(packed) != g-1 || len(unpacked) != g-1 || packed[s-1] != (myIdx+s)%g || unpacked[s-1] != (myIdx-s+g)%g {
					t.Fatalf("ep%d rank %d: packed %v, unpacked %v, want step s to pack for participant +s and unpack from −s", ep, v.Rank, packed, unpacked)
				}
			}
		}
	})
}

func runSubgroupRooted(t *testing.T, linear bool) {
	const n, episodes = 3, 12
	w := newWorld(t, "13(13)")
	sz := w.NumImages()
	g := len(rootedGroup)
	block := func(i int) []int { return rootedBlocks[i] }
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		myIdx := -1
		for i, r := range rootedGroup {
			if r == v.Rank {
				myIdx = i
			}
		}
		if myIdx < 0 {
			return
		}
		sc := GetState(v, Alg{"test.sc"}, 5)
		ga := GetState(v, Alg{"test.ga"}, max(4, 3*Rounds(g)))
		rng := rand.New(rand.NewSource(int64(v.Rank) * 7919))
		for ep := 0; ep < episodes; ep++ {
			if rng.Intn(3) == 0 {
				im.Sleep(sim.Time(rng.Intn(300_000)))
			} else {
				im.Sleep(sim.Time(rng.Intn(5_000)))
			}
			rootIdx := (ep * 3) % g
			rel := (myIdx - rootIdx + g) % g
			span := g
			if linear {
				span = 1
			} else if rel != 0 {
				span = min(rel&-rel, g-rel)
			}
			var want []float64 // what I hold, packed in relative order
			for q := rel; q < rel+span; q++ {
				for _, r := range rootedBlocks[(q+rootIdx)%g] {
					for i := range n {
						want = append(want, rootedValue(ep, r, i))
					}
				}
			}

			sc.Next()
			var send []float64
			if rel == 0 {
				send = make([]float64, sz*n)
				for r := range sz {
					for i := range n {
						send[r*n+i] = rootedValue(ep, r, i)
					}
				}
				sc.Inject(4)
			}
			recv := make([]float64, n)
			forwarded := func(tree []float64) {
				if !slices.Equal(tree, want) {
					t.Errorf("scatter ep%d rank %d: holds %v, want %v", ep, v.Rank, tree, want)
				}
			}
			if linear {
				SubgroupScatterLinear(sc, 0, rootedGroup, myIdx, rootIdx, block, 4, send, recv, forwarded)
			} else {
				SubgroupScatterBinomial(sc, 0, rootedGroup, myIdx, rootIdx, block, 4, send, recv, forwarded)
			}
			if rel == 0 {
				sc.Publish(4, rootedGroup, rootIdx, pgas.ViaConduit)
			} else if !slices.Equal(recv, want[:n]) {
				t.Errorf("scatter ep%d rank %d: recv %v, want %v", ep, v.Rank, recv, want[:n])
			}

			ga.Next()
			own := want[:len(rootedBlocks[myIdx])*n]
			var got []float64
			if rel == 0 {
				got = make([]float64, sz*n)
				for i := range got {
					got[i] = -1
				}
			}
			if linear {
				SubgroupGatherLinear(ga, 0, rootedGroup, myIdx, rootIdx, block, 4, own, got, n)
			} else {
				SubgroupGatherBinomial(ga, 0, rootedGroup, myIdx, rootIdx, block, 4, own, got, n)
			}
			if rel != 0 {
				continue
			}
			wantGot := make([]float64, sz*n) // the root's own ranks and rank 6 stay untouched
			for i := range wantGot {
				wantGot[i] = -1
			}
			for q := 1; q < g; q++ {
				for _, r := range rootedBlocks[(q+rootIdx)%g] {
					for i := range n {
						wantGot[r*n+i] = rootedValue(ep, r, i)
					}
				}
			}
			if !slices.Equal(got, wantGot) {
				t.Errorf("gather ep%d root %d: recv %v, want %v", ep, v.Rank, got, wantGot)
			}
		}
	})
}

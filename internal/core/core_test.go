package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cafteams/internal/coll"
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

var hierBarriers = map[string]func(v *team.View){
	"tdlb":  BarrierTDLB,
	"tdll":  BarrierTDLL,
	"tdlb3": BarrierTDLB3,
}

func checkBarrier(t *testing.T, w *pgas.World, name string, fn func(v *team.View), episodes int) {
	t.Helper()
	n := w.NumImages()
	entered := make([]int, n)
	for i := range entered {
		entered[i] = -1
	}
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		rng := rand.New(rand.NewSource(int64(im.Rank()) * 13))
		for ep := 0; ep < episodes; ep++ {
			im.Sleep(sim.Time(rng.Intn(30000)))
			entered[im.Rank()] = ep
			fn(v)
			for r := 0; r < n; r++ {
				if entered[r] < ep {
					t.Errorf("%s: image %d left episode %d before image %d entered", name, im.Rank(), ep, r)
					return
				}
			}
		}
	})
}

func TestHierarchyBarriersSynchronize(t *testing.T) {
	for name, fn := range hierBarriers {
		for _, spec := range []string{"16(2)", "16(16)", "24(3)", "7(2)", "1(1)", "13(4)", "8(1)"} {
			t.Run(fmt.Sprintf("%s/%s", name, spec), func(t *testing.T) {
				checkBarrier(t, newWorld(t, spec), name, fn, 4)
			})
		}
	}
}

func TestTDLBOnSubteams(t *testing.T) {
	w := newWorld(t, "32(4)")
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		sub := v.Form(int64(im.Rank()%2)+1, -1)
		if im.Rank()%2 == 0 {
			im.Sleep(300 * sim.Microsecond)
		}
		start := im.Now()
		for ep := 0; ep < 3; ep++ {
			BarrierTDLB(sub)
		}
		if im.Rank()%2 == 1 && im.Now()-start > 250*sim.Microsecond {
			t.Errorf("odd image %d blocked on the even subteam", im.Rank())
		}
	})
}

func TestTDLBFasterThanFlatWithManyImagesPerNode(t *testing.T) {
	// The paper's headline: with 8 images/node the hierarchy-aware barrier
	// beats flat dissemination substantially (E2).
	time := func(fn func(v *team.View)) sim.Time {
		w := newWorld(t, "64(8)")
		return w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			for i := 0; i < 10; i++ {
				fn(v)
			}
		})
	}
	flat := time(coll.BarrierDissemination)
	tdlb := time(BarrierTDLB)
	if tdlb*2 >= flat {
		t.Fatalf("TDLB (%d ns) should be at least 2x faster than flat dissemination (%d ns) at 8 images/node", tdlb, flat)
	}
}

func TestTDLBMatchesDisseminationOnFlatHierarchy(t *testing.T) {
	// E1: with one image per node TDLB degenerates to dissemination; the
	// end-to-end times must be identical (same algorithm, same messages).
	time := func(fn func(v *team.View)) sim.Time {
		w := newWorld(t, "16(16)")
		return w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			for i := 0; i < 5; i++ {
				fn(v)
			}
		})
	}
	flat := time(coll.BarrierDissemination)
	tdlb := time(BarrierTDLB)
	if flat != tdlb {
		t.Fatalf("flat hierarchy: TDLB = %d ns, dissemination = %d ns; must coincide", tdlb, flat)
	}
}

// TestLeveledFormsMatchOnOneSocketNodes is the same degeneration one level
// up: with one socket per node every socket group is its intranode set and
// every node leader the only socket leader, so the extra level of the
// three-level forms has nobody to wait for or release — tdlb3 is tdlb and
// 3level is 2level, in modeled time and in messages.
func TestLeveledFormsMatchOnOneSocketNodes(t *testing.T) {
	run := func(fn func(v *team.View)) (sim.Time, trace.Snapshot) {
		topo, err := topology.New(4, 1, 6, 22, topology.PlaceCyclic)
		if err != nil {
			t.Fatal(err)
		}
		w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
		if err != nil {
			t.Fatal(err)
		}
		end := w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			for i := 0; i < 5; i++ {
				fn(v)
			}
		})
		sn := w.Stats().Snapshot()
		sn.CoarrayBytes, sn.FlagBytes = 0, 0 // the three-level layouts reserve an unused level
		return end, sn
	}
	allreduce := func(alg func(*team.View, []float64, coll.Op[float64])) func(*team.View) {
		return func(v *team.View) { alg(v, make([]float64, 40), coll.Sum) }
	}
	for _, c := range []struct {
		name       string
		two, three func(v *team.View)
	}{
		{"tdlb3=tdlb", BarrierTDLB, BarrierTDLB3},
		{"3level=2level", allreduce(AllreduceTwoLevel[float64]), allreduce(AllreduceThreeLevel[float64])},
	} {
		end2, sn2 := run(c.two)
		end3, sn3 := run(c.three)
		if end2 != end3 {
			t.Errorf("%s: modeled end %d ns (two-level) != %d ns (three-level)", c.name, end2, end3)
		}
		if sn2.String() != sn3.String() {
			t.Errorf("%s: messages differ:\n two-level:   %v\n three-level: %v", c.name, sn2, sn3)
		}
	}
}

// TestLevelsOfProperties checks what the leveled algorithms take for granted
// about an image's way up, on scheduler-produced and randomized placements,
// at both depths: an image is in its innermost group; a level's leader is in
// its own group and in the next level's; the last leader is the node leader;
// the innermost groups partition the team; no group is wider than its level's
// inbox range.
func TestLevelsOfProperties(t *testing.T) {
	scs := placementScenarios(t)
	rng := rand.New(rand.NewSource(20260930))
	for i := 0; i < 40; i++ {
		scs = append(scs, confScenario{nodes: 1 + rng.Intn(5), perNode: 1 + rng.Intn(6), place: topology.Placement(rng.Intn(2))})
	}
	for _, sc := range scs {
		w := sc.world(t)
		w.Run(func(im *pgas.Image) {
			if im.Rank() != 0 {
				return
			}
			tm := team.Initial(w, im).T
			for depth, sockets := range map[int]bool{1: false, 2: true} {
				widths := levelWidths(tm, sockets)
				for r := 0; r < tm.Size(); r++ {
					var buf, other [2]level
					levels := levelsOf(tm, r, sockets, &buf)
					if len(levels) != depth {
						t.Fatalf("%s rank %d: %d levels, want %d", sc, r, len(levels), depth)
					}
					if !slices.Contains(levels[0].group, r) {
						t.Errorf("%s rank %d is not in its innermost group %v", sc, r, levels[0].group)
					}
					for d, lv := range levels {
						if !slices.Contains(lv.group, lv.leader) {
							t.Errorf("%s rank %d level %d: leader %d is not in its group %v", sc, r, d, lv.leader, lv.group)
						}
						if d+1 < depth && !slices.Contains(levels[d+1].group, lv.leader) {
							t.Errorf("%s rank %d level %d: leader %d does not climb into %v", sc, r, d, lv.leader, levels[d+1].group)
						}
						if len(lv.group) > widths[d] {
							t.Errorf("%s rank %d level %d: group %v wider than the level's %d regions", sc, r, d, lv.group, widths[d])
						}
					}
					if last := levels[depth-1].leader; last != tm.LeaderOf(r) {
						t.Errorf("%s rank %d: way up ends at %d, node leader is %d", sc, r, last, tm.LeaderOf(r))
					}
					// r is in its own group and shares it, leader included,
					// with every member: the groups partition the team.
					for _, m := range levels[0].group {
						if l0 := levelsOf(tm, m, sockets, &other)[0]; !slices.Equal(l0.group, levels[0].group) || l0.leader != levels[0].leader {
							t.Errorf("%s: rank %d is in rank %d's innermost group %v but has %v", sc, m, r, levels[0].group, l0.group)
						}
					}
				}
			}
		})
	}
}

func TestTDLBMessageShape(t *testing.T) {
	// TDLB on m nodes x p images: 2·m·(p−1) intra-node notifications plus
	// m·ceil(log2 m) inter-node ones per episode.
	w := newWorld(t, "32(4)") // 4 nodes x 8
	w.Run(func(im *pgas.Image) {
		BarrierTDLB(team.Initial(w, im))
	})
	sn := w.Stats().Snapshot()
	wantIntra := int64(2 * 4 * 7)
	wantInter := int64(4 * 2) // ceil(log2 4) = 2 rounds
	if sn.IntraMsgs != wantIntra {
		t.Fatalf("intra msgs = %d, want %d", sn.IntraMsgs, wantIntra)
	}
	if sn.InterMsgs != wantInter {
		t.Fatalf("inter msgs = %d, want %d", sn.InterMsgs, wantInter)
	}
}

func TestAllreduceTwoLevelCorrect(t *testing.T) {
	for _, spec := range []string{"16(2)", "8(8)", "24(3)", "7(2)", "1(1)", "13(4)"} {
		t.Run(spec, func(t *testing.T) {
			w := newWorld(t, spec)
			n := w.NumImages()
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				for ep := 0; ep < 3; ep++ {
					buf := make([]float64, 21)
					for i := range buf {
						buf[i] = float64((im.Rank() + 1) * (i + 1 + ep))
					}
					AllreduceTwoLevel(v, buf, coll.Sum)
					for i := range buf {
						want := float64(i+1+ep) * float64(n*(n+1)) / 2
						if math.Abs(buf[i]-want) > 1e-9 {
							t.Errorf("ep%d image %d elem %d = %v, want %v", ep, im.Rank(), i, buf[i], want)
							return
						}
					}
				}
			})
		})
	}
}

func TestAllreduceTwoLevelMaxMin(t *testing.T) {
	w := newWorld(t, "12(3)")
	n := w.NumImages()
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		buf := []float64{float64(im.Rank())}
		AllreduceTwoLevel(v, buf, coll.Max)
		if buf[0] != float64(n-1) {
			t.Errorf("max = %v, want %v", buf[0], float64(n-1))
		}
		buf[0] = float64(im.Rank())
		AllreduceTwoLevel(v, buf, coll.Min)
		if buf[0] != 0 {
			t.Errorf("min = %v, want 0", buf[0])
		}
	})
}

func TestBcastTwoLevelVaryingRoots(t *testing.T) {
	for _, spec := range []string{"16(2)", "8(8)", "24(3)", "7(2)", "1(1)", "13(4)"} {
		t.Run(spec, func(t *testing.T) {
			w := newWorld(t, spec)
			n := w.NumImages()
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				rng := rand.New(rand.NewSource(int64(im.Rank())))
				for ep := 0; ep < 5; ep++ {
					root := (ep*5 + 1) % n
					buf := make([]float64, 17)
					if v.Rank == root {
						for i := range buf {
							buf[i] = float64(root*100 + i + ep)
						}
					}
					im.Sleep(sim.Time(rng.Intn(8000)))
					BcastTwoLevel(v, root, buf)
					for i := range buf {
						if buf[i] != float64(root*100+i+ep) {
							t.Errorf("%s ep%d root%d image %d elem %d = %v, want %v",
								spec, ep, root, im.Rank(), i, buf[i], float64(root*100+i+ep))
							return
						}
					}
				}
			})
		})
	}
}

func TestTwoLevelReduceFasterThanFlat(t *testing.T) {
	// E3 shape: with 8 images/node two-level reduction beats flat
	// recursive doubling.
	time := func(two bool) sim.Time {
		w := newWorld(t, "64(8)")
		return w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			buf := make([]float64, 256)
			for i := 0; i < 5; i++ {
				if two {
					AllreduceTwoLevel(v, buf, coll.Sum)
				} else {
					coll.AllreduceRD(v, buf, coll.Sum)
				}
			}
		})
	}
	flat := time(false)
	two := time(true)
	if two >= flat {
		t.Fatalf("two-level reduce (%d ns) not faster than flat (%d ns)", two, flat)
	}
}

func TestTwoLevelBcastFasterThanFlat(t *testing.T) {
	time := func(two bool) sim.Time {
		w := newWorld(t, "64(8)")
		return w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			buf := make([]float64, 256)
			for i := 0; i < 5; i++ {
				if two {
					BcastTwoLevel(v, 0, buf)
				} else {
					coll.BcastBinomial(v, 0, buf)
				}
			}
		})
	}
	flat := time(false)
	two := time(true)
	if two >= flat {
		t.Fatalf("two-level bcast (%d ns) not faster than flat (%d ns)", two, flat)
	}
}

func TestPolicyAutoSelects(t *testing.T) {
	// One image per node -> flat; several per node -> two-level. With every
	// kind on "auto" the level no longer decides: the pick is the decision
	// table's row for what the call looks like (here: the key the table is
	// given is the team's), and a flat policy gets the row's flat pick.
	for _, c := range []struct {
		spec string
		want Level
		key  AutoKey
	}{
		{"4(4)", LevelFlat, AutoKey{PerNode: 1, Sockets: 1, Nodes: 4, Bytes: 1024}},
		{"16(2)", LevelTwo, AutoKey{PerNode: 8, Sockets: 2, Nodes: 2, Bytes: 1024}},
	} {
		spec, w := c.spec, newWorld(t, c.spec)
		w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			if got := (&Policy{Level: LevelAuto}).effective(v); got != c.want {
				t.Errorf("auto on %s = %v, want %v", spec, got, c.want)
			}
			key := AutoKeyOf(v, 1024)
			if key != c.key {
				t.Errorf("%s: key %+v, want %+v", spec, key, c.key)
			}
			for _, k := range Kinds() {
				row, _ := AutoPick(k, key)
				if got := (&Policy{Level: LevelAuto, Tuning: AllAuto()}).AlgFor(k, v, 128, 8); got != row.Alg {
					t.Errorf("%s %s: auto runs %q, the table says %q", spec, k, got, row.Alg)
				}
				if got := (&Policy{Level: LevelFlat, Tuning: AllAuto()}).AlgFor(k, v, 128, 8); got != row.Flat || HierarchyAware(got) {
					t.Errorf("%s %s: flat auto runs %q, the table says %q", spec, k, got, row.Flat)
				}
			}
		})
	}
}

func TestPolicyDispatchesAllLevels(t *testing.T) {
	for _, lvl := range []Level{LevelFlat, LevelTwo, LevelThree, LevelAuto} {
		lvl := lvl
		t.Run(lvl.String(), func(t *testing.T) {
			w := newWorld(t, "16(2)")
			n := w.NumImages()
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				p := Policy{Level: lvl}
				p.Barrier(v)
				buf := []float64{1}
				PolicyAllreduce(p, v, buf, coll.Sum)
				if buf[0] != float64(n) {
					t.Errorf("%v allreduce = %v, want %v", lvl, buf[0], float64(n))
				}
				if v.Rank == 3 {
					buf[0] = 42
				}
				PolicyBroadcast(p, v, 3, buf)
				if buf[0] != 42 {
					t.Errorf("%v broadcast = %v, want 42", lvl, buf[0])
				}
				p.Barrier(v)
			})
		})
	}
}

func TestLevelStrings(t *testing.T) {
	want := map[Level]string{LevelFlat: "1level", LevelTwo: "2level", LevelThree: "3level", LevelAuto: "auto", Level(9): "level?"}
	for l, s := range want {
		if l.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(l), l.String(), s)
		}
	}
}

func TestTDLB3UsesFewerCrossSocketMessages(t *testing.T) {
	// The 3-level barrier must synchronize correctly and should not be
	// wildly slower than 2-level on a dual-socket node layout.
	time := func(fn func(v *team.View)) sim.Time {
		w := newWorld(t, "64(8)")
		return w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			for i := 0; i < 10; i++ {
				fn(v)
			}
		})
	}
	two := time(BarrierTDLB)
	three := time(BarrierTDLB3)
	if three > two*2 {
		t.Fatalf("3-level barrier (%d ns) more than 2x slower than 2-level (%d ns)", three, two)
	}
}

func TestMixedTwoLevelCollectiveSequence(t *testing.T) {
	w := newWorld(t, "24(3)")
	n := w.NumImages()
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		for ep := 0; ep < 3; ep++ {
			BarrierTDLB(v)
			buf := []float64{float64(im.Rank() + 1)}
			AllreduceTwoLevel(v, buf, coll.Sum)
			want := float64(n*(n+1)) / 2
			if buf[0] != want {
				t.Errorf("ep%d sum = %v, want %v", ep, buf[0], want)
			}
			BcastTwoLevel(v, ep%n, buf)
			BarrierTDLB3(v)
		}
	})
}

func TestTwoLevelCollectivesOnGridTeams(t *testing.T) {
	// Row/column teams as HPL uses them: collectives on both must work
	// and stay independent.
	w := newWorld(t, "16(2)")
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		row, col, err := v.Grid(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		r, c := im.Rank()/4, im.Rank()%4
		buf := []float64{float64(im.Rank())}
		AllreduceTwoLevel(row, buf, coll.Sum)
		wantRow := float64(4*r*4) + 6 // sum of ranks r*4..r*4+3
		if buf[0] != wantRow {
			t.Errorf("row sum image %d = %v, want %v", im.Rank(), buf[0], wantRow)
		}
		buf[0] = float64(im.Rank())
		AllreduceTwoLevel(col, buf, coll.Sum)
		wantCol := float64(4*c + 24) // c + (c+4) + (c+8) + (c+12)
		if buf[0] != wantCol {
			t.Errorf("col sum image %d = %v, want %v", im.Rank(), buf[0], wantCol)
		}
		BarrierTDLB(row)
		BarrierTDLB(col)
	})
}

// newWorldCyclic builds a world with cyclic placement: rank i on node i%nodes.
func newWorldCyclic(t testing.TB, nodes, perNode int) *pgas.World {
	t.Helper()
	topo, err := topology.New(nodes, 2, (perNode+1)/2, nodes*perNode, topology.PlaceCyclic)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestScanCountsOneOpPerCall: every scan algorithm counts one reduction per
// call and image — on a cyclic placement too, where the two-level scan hands
// the call to the flat one, which counts it.
func TestScanCountsOneOpPerCall(t *testing.T) {
	const calls = 3
	for _, name := range Algorithms(KindScan) {
		w := newWorldCyclic(t, 3, 2)
		w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			for i := 0; i < calls; i++ {
				RunScan(name, v, []float64{1}, coll.Sum, i%2 == 1)
			}
		})
		if got, want := w.Stats().Snapshot().Ops[trace.OpReduce], int64(calls*w.NumImages()); got != want {
			t.Errorf("scan/%s on a cyclic placement: %d reductions counted for %d calls on %d images, want %d", name, got, calls, w.NumImages(), want)
		}
	}
}

func TestAllreduceThreeLevelCorrect(t *testing.T) {
	for _, spec := range []string{"16(2)", "8(8)", "24(3)", "7(2)", "1(1)", "64(8)"} {
		t.Run(spec, func(t *testing.T) {
			w := newWorld(t, spec)
			n := w.NumImages()
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				for ep := 0; ep < 3; ep++ {
					buf := make([]float64, 13)
					for i := range buf {
						buf[i] = float64((im.Rank() + 1) * (i + 1 + ep))
					}
					AllreduceThreeLevel(v, buf, coll.Sum)
					for i := range buf {
						want := float64(i+1+ep) * float64(n*(n+1)) / 2
						if math.Abs(buf[i]-want) > 1e-9 {
							t.Errorf("ep%d image %d elem %d = %v, want %v", ep, im.Rank(), i, buf[i], want)
							return
						}
					}
				}
			})
		})
	}
}

func TestThreeLevelReduceCompetitive(t *testing.T) {
	// On dual-socket nodes the 3-level reduce should be within 2x of the
	// 2-level one (it trades bus traffic for an extra stage).
	time := func(three bool) sim.Time {
		w := newWorld(t, "64(8)")
		return w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			buf := make([]float64, 64)
			for i := 0; i < 5; i++ {
				if three {
					AllreduceThreeLevel(v, buf, coll.Sum)
				} else {
					AllreduceTwoLevel(v, buf, coll.Sum)
				}
			}
		})
	}
	two := time(false)
	three := time(true)
	if three > 2*two {
		t.Fatalf("3-level reduce (%d ns) more than 2x the 2-level (%d ns)", three, two)
	}
}

func TestPolicyLevelThreeUsesThreeLevelReduce(t *testing.T) {
	w := newWorld(t, "16(2)")
	n := w.NumImages()
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		p := Policy{Level: LevelThree}
		buf := []float64{float64(im.Rank() + 1)}
		PolicyAllreduce(p, v, buf, coll.Sum)
		if buf[0] != float64(n*(n+1))/2 {
			t.Errorf("3-level policy sum = %v", buf[0])
		}
	})
}

func TestReduceToRootTwoLevelCorrect(t *testing.T) {
	for _, spec := range []string{"16(2)", "8(8)", "7(2)", "24(3)", "1(1)", "13(4)"} {
		t.Run(spec, func(t *testing.T) {
			w := newWorld(t, spec)
			n := w.NumImages()
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				rng := rand.New(rand.NewSource(int64(im.Rank())))
				for ep := 0; ep < 6; ep++ {
					root := (ep * 5) % n
					im.Sleep(sim.Time(rng.Intn(10000)))
					buf := []float64{float64(im.Rank() + 1)}
					ReduceToRootTwoLevel(v, root, buf, coll.Sum)
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

func TestReduceToRootTwoLevelFasterThanFlat(t *testing.T) {
	time := func(two bool) sim.Time {
		w := newWorld(t, "64(8)")
		return w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			buf := make([]float64, 128)
			for i := 0; i < 5; i++ {
				if two {
					ReduceToRootTwoLevel(v, 0, buf, coll.Sum)
				} else {
					coll.ReduceToRoot(v, 0, buf, coll.Sum)
				}
			}
		})
	}
	flat := time(false)
	two := time(true)
	if two >= flat {
		t.Fatalf("two-level reduce-to-one (%d ns) not faster than flat (%d ns)", two, flat)
	}
}

func TestAllgatherTwoLevelCorrect(t *testing.T) {
	for _, spec := range []string{"16(2)", "8(8)", "7(2)", "24(3)", "1(1)", "13(4)"} {
		t.Run(spec, func(t *testing.T) {
			w := newWorld(t, spec)
			n := w.NumImages()
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				rng := rand.New(rand.NewSource(int64(im.Rank())))
				for ep := 0; ep < 3; ep++ {
					im.Sleep(sim.Time(rng.Intn(5000)))
					mine := []float64{float64(im.Rank()*100 + ep), float64(im.Rank())}
					out := make([]float64, 2*n)
					AllgatherTwoLevel(v, mine, out)
					for r := 0; r < n; r++ {
						if out[2*r] != float64(r*100+ep) || out[2*r+1] != float64(r) {
							t.Errorf("%s ep%d image %d: block %d = %v", spec, ep, im.Rank(), r, out[2*r:2*r+2])
							return
						}
					}
				}
			})
		})
	}
}

func TestAllgatherTwoLevelFasterThanFlat(t *testing.T) {
	time := func(two bool) sim.Time {
		w := newWorld(t, "64(8)")
		return w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			mine := make([]float64, 16)
			out := make([]float64, 16*w.NumImages())
			for i := 0; i < 3; i++ {
				if two {
					AllgatherTwoLevel(v, mine, out)
				} else {
					coll.AllgatherRing(v, mine, out)
				}
			}
		})
	}
	flat := time(false)
	two := time(true)
	if two >= flat {
		t.Fatalf("two-level allgather (%d ns) not faster than ring (%d ns)", two, flat)
	}
}

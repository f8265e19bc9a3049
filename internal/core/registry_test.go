package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
)

// crossShapes are the team shapes the registry cross-validation runs on:
// one dense single node, a dense multi-node placement, and an odd size that
// exercises every non-power-of-two path.
var crossShapes = []string{"8(1)", "16(4)", "9(3)"}

const crossEpisodes = 3

// runDataCollective runs `episodes` episodes of one named algorithm for one
// data-bearing kind on every image of a fresh world and returns the per
// (episode, rank) output vectors. Inputs are deterministic small integers,
// so every correct algorithm must produce bit-identical float64 results
// regardless of combine order.
func runDataCollective(t *testing.T, spec string, k Kind, name string, elems int) [][][]float64 {
	t.Helper()
	w := newWorld(t, spec)
	n := w.NumImages()
	got := make([][][]float64, crossEpisodes)
	for ep := range got {
		got[ep] = make([][]float64, n)
	}
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		rng := rand.New(rand.NewSource(int64(im.Rank()+1) * 17))
		for ep := 0; ep < crossEpisodes; ep++ {
			// Random skew so algorithms cannot rely on lockstep entry.
			im.Sleep(sim.Time(rng.Intn(20000)))
			root := ep % n
			var out []float64
			buf := make([]float64, elems)
			for i := range buf {
				buf[i] = float64(((im.Rank() + 1) * (i + 1 + ep)) % 512)
			}
			switch k {
			case KindAllreduce:
				RunAllreduce(name, v, buf, coll.Sum)
				out = buf
			case KindReduceTo:
				RunReduceTo(name, v, root, buf, coll.Sum)
				if v.Rank != root {
					// Only the root's buffer is defined; normalize the
					// rest so comparisons skip them.
					out = make([]float64, elems)
				} else {
					out = buf
				}
			case KindBroadcast:
				if v.Rank == root {
					for i := range buf {
						buf[i] = float64((root*1000 + i + ep) % 512)
					}
				}
				RunBroadcast(name, v, root, buf)
				out = buf
			case KindAllgather:
				out = make([]float64, n*elems)
				RunAllgather(name, v, buf, out)
			default:
				t.Fatalf("kind %v is not data-bearing", k)
			}
			got[ep][v.Rank] = out
		}
	})
	return got
}

// flatBaseline names the hierarchy-oblivious reference algorithm per kind.
var flatBaseline = map[Kind]string{
	KindAllreduce: "rd",
	KindReduceTo:  "binomial",
	KindBroadcast: "binomial",
	KindAllgather: "ring",
}

// TestRegistryCrossValidation runs every registered algorithm of every
// data-bearing kind on several team shapes and asserts bit-identical
// results against the flat baseline.
func TestRegistryCrossValidation(t *testing.T) {
	for _, spec := range crossShapes {
		for _, k := range []Kind{KindAllreduce, KindReduceTo, KindBroadcast, KindAllgather} {
			for _, elems := range []int{1, 5, 67} {
				base := runDataCollective(t, spec, k, flatBaseline[k], elems)
				for _, name := range Algorithms(k) {
					if name == flatBaseline[k] {
						continue
					}
					t.Run(fmt.Sprintf("%s/%s/%s/%delems", spec, k, name, elems), func(t *testing.T) {
						got := runDataCollective(t, spec, k, name, elems)
						for ep := range base {
							for r := range base[ep] {
								want, have := base[ep][r], got[ep][r]
								if len(want) != len(have) {
									t.Fatalf("ep%d rank%d: len %d != baseline %d", ep, r, len(have), len(want))
								}
								for i := range want {
									if math.Float64bits(want[i]) != math.Float64bits(have[i]) {
										t.Fatalf("ep%d rank%d elem%d: %v != baseline %v (algorithm %s/%s)",
											ep, r, i, have[i], want[i], k, name)
									}
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestRegistryBarriersSynchronize validates every registered barrier
// algorithm on every cross-validation shape: no image may leave episode e
// before every image has entered it.
func TestRegistryBarriersSynchronize(t *testing.T) {
	for _, spec := range crossShapes {
		for _, name := range Algorithms(KindBarrier) {
			t.Run(spec+"/"+name, func(t *testing.T) {
				alg := name
				checkBarrier(t, newWorld(t, spec), "barrier/"+alg,
					func(v *team.View) { RunBarrier(alg, v) }, 4)
			})
		}
	}
}

// TestTuningValidateAndSelection checks Tuning validation and what each kind
// of entry resolves to: an explicit name to itself; the zero Tuning to exactly
// the hierarchy level's column of kindTable, whatever the payload (the paper's
// methodology, which the decision table must not touch); "auto" to the
// decision table's row for the call — its pick under LevelAuto, its flat pick
// under LevelFlat — and, under an explicit two- or three-level policy, to that
// level's column. Auto resolutions, and only those, are counted.
func TestTuningValidateAndSelection(t *testing.T) {
	if err := (Tuning{}).Validate(); err != nil {
		t.Fatalf("zero tuning invalid: %v", err)
	}
	if err := AllAuto().Validate(); err != nil {
		t.Fatalf("auto tuning invalid: %v", err)
	}
	if err := (Tuning{KindAllreduce: "no-such-alg"}).Validate(); err == nil {
		t.Fatal("unknown algorithm name accepted")
	}
	if got := (Tuning{}).With(KindBroadcast, "linear"); got.For(KindBroadcast) != "linear" {
		t.Fatalf("With(KindBroadcast) = %+v", got)
	}

	// unsized, two, three.
	want := [numKinds][3]string{
		KindBarrier:   {"dissemination", "tdlb", "tdlb3"},
		KindAllreduce: {"rd", "2level", "3level"},
		KindReduceTo:  {"binomial", "2level", "2level"},
		KindBroadcast: {"binomial", "2level", "2level"},
		KindAllgather: {"ring", "2level", "2level"},
		KindScatter:   {"binomial", "2level", "2level"},
		KindGather:    {"binomial", "2level", "2level"},
		KindAlltoall:  {"pairwise", "2level", "2level"},
		KindScan:      {"rd", "2level", "2level"},
	}
	payloads := []struct{ elems, elemSize int }{{-1, 0}, {1, 8}, {8, 8}, {128, 8}, {4096, 8}, {1 << 17, 8}, {4, 8 << 10}}
	for _, spec := range []string{"16(2)", "8(8)", "16(4)"} {
		w := newWorld(t, spec)
		w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			if im.Rank() != 0 {
				return
			}
			autoCol := 1 // LevelAuto: two-level where a node holds several images
			if spec == "8(8)" {
				autoCol = 0
			}
			autos := int64(0)
			for k := range want {
				k := Kind(k)
				for _, pl := range payloads {
					if (k == KindBarrier) != (pl.elems < 0) {
						continue
					}
					for level, col := range map[Level]int{LevelFlat: 0, LevelTwo: 1, LevelThree: 2, LevelAuto: autoCol} {
						if got := (&Policy{Level: level}).AlgFor(k, v, pl.elems, pl.elemSize); got != want[k][col] {
							t.Errorf("%s %s %v/%v: zero tuning runs %q, want %q", spec, k, level, pl, got, want[k][col])
						}
						row, _ := AutoPick(k, AutoKeyOf(v, max(pl.elems, 0)*pl.elemSize))
						wantAuto := map[Level]string{LevelFlat: row.Flat, LevelTwo: want[k][1], LevelThree: want[k][2], LevelAuto: row.Alg}[level]
						if got := (&Policy{Level: level, Tuning: AllAuto()}).AlgFor(k, v, pl.elems, pl.elemSize); got != wantAuto {
							t.Errorf("%s %s %v/%v: auto runs %q, want %q (row %v)", spec, k, level, pl, got, wantAuto, row)
						}
						autos++
						forced := Policy{Level: level, Tuning: AllAuto().With(k, Algorithms(k)[1])}
						if got := forced.AlgFor(k, v, pl.elems, pl.elemSize); got != Algorithms(k)[1] {
							t.Errorf("%s %s %v/%v: forced %q, got %q", spec, k, level, pl, Algorithms(k)[1], got)
						}
					}
				}
			}
			counted := int64(0)
			for _, byAlg := range w.Stats().Snapshot().AutoPicks {
				for _, n := range byAlg {
					counted += n
				}
			}
			if counted != autos {
				t.Errorf("%s: %d auto decisions counted, %d made", spec, counted, autos)
			}
		})
	}
}

// TestRegistryGenericAgreement checks that int64 and float32 instantiations
// of a registry algorithm agree with the float64 instantiation on
// integer-valued inputs.
func TestRegistryGenericAgreement(t *testing.T) {
	for _, name := range []string{"rd", "ring", "2level"} {
		t.Run(name, func(t *testing.T) {
			alg := name
			w := newWorld(t, "12(3)")
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				const elems = 40
				f64 := make([]float64, elems)
				i64 := make([]int64, elems)
				f32 := make([]float32, elems)
				for i := range f64 {
					val := ((im.Rank() + 1) * (i + 3)) % 128
					f64[i] = float64(val)
					i64[i] = int64(val)
					f32[i] = float32(val)
				}
				RunAllreduce(alg, v, f64, coll.Sum)
				RunAllreduce(alg, v, i64, coll.SumOp[int64]())
				RunAllreduce(alg, v, f32, coll.SumOp[float32]())
				for i := range f64 {
					if float64(i64[i]) != f64[i] {
						t.Errorf("%s int64[%d] = %d, float64 = %v", alg, i, i64[i], f64[i])
						return
					}
					if float64(f32[i]) != f64[i] {
						t.Errorf("%s float32[%d] = %v, float64 = %v", alg, i, f32[i], f64[i])
						return
					}
				}
			})
		})
	}
}

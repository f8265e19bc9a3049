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

// TestTuningValidateAndSelection checks Tuning validation and that explicit
// and auto tuning entries resolve to the expected registry names.
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

	w := newWorld(t, "16(2)") // dense: effective level two
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		if im.Rank() != 0 {
			return
		}
		deflt := Policy{Level: LevelAuto}
		if got := deflt.algFor(KindBarrier, v, -1, 0); got != "tdlb" {
			t.Errorf("default dense barrier = %q, want tdlb", got)
		}
		if got := deflt.algFor(KindAllreduce, v, 1, 8); got != "2level" {
			t.Errorf("default dense allreduce = %q, want 2level", got)
		}
		flatAuto := Policy{Level: LevelFlat, Tuning: AllAuto()}
		if got := flatAuto.algFor(KindAllreduce, v, 8, 8); got != "rd" {
			t.Errorf("flat auto small allreduce = %q, want rd", got)
		}
		if got := flatAuto.algFor(KindAllreduce, v, 1<<17, 8); got != "ring" {
			t.Errorf("flat auto large allreduce = %q, want ring", got)
		}
		if got := flatAuto.algFor(KindBroadcast, v, 1<<17, 8); got != "scatter-allgather" {
			t.Errorf("flat auto large bcast = %q, want scatter-allgather", got)
		}
		if got := flatAuto.algFor(KindAllgather, v, 32, 8); got != "bruck" {
			t.Errorf("flat auto small allgather = %q, want bruck", got)
		}
		forced := Policy{Level: LevelAuto, Tuning: Tuning{KindAllreduce: "tree"}}
		if got := forced.algFor(KindAllreduce, v, 1, 8); got != "tree" {
			t.Errorf("forced allreduce = %q, want tree", got)
		}
	})

	// The whole rule: kind × level × payload. Flat choices by payload class —
	// size not consulted, small, large, large with fewer elements than images
	// (the chunked algorithms need one per member) — then the two- and
	// three-level choice, which no payload changes.
	want := [numKinds][6]string{
		KindBarrier:   {"dissemination", "dissemination", "dissemination", "dissemination", "tdlb", "tdlb3"},
		KindAllreduce: {"rd", "rd", "ring", "rd", "2level", "3level"},
		KindReduceTo:  {"binomial", "binomial", "binomial", "binomial", "2level", "2level"},
		KindBroadcast: {"binomial", "binomial", "scatter-allgather", "binomial", "2level", "2level"},
		KindAllgather: {"ring", "bruck", "ring", "ring", "2level", "2level"},
		KindScatter:   {"binomial", "binomial", "linear", "linear", "2level", "2level"},
		KindGather:    {"binomial", "binomial", "linear", "linear", "2level", "2level"},
		KindAlltoall:  {"pairwise", "bruck", "pairwise", "pairwise", "2level", "2level"},
		KindScan:      {"rd", "rd", "rd", "rd", "2level", "2level"},
	}
	payloads := [4]struct{ elems, elemSize int }{{-1, 8}, {8, 8}, {1 << 17, 8}, {4, autoLargeBytes / 4}}
	for _, spec := range []string{"16(2)", "8(8)"} {
		w := newWorld(t, spec)
		w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			if im.Rank() != 0 {
				return
			}
			autoLevel := 4 // LevelAuto: two-level where a node holds several images
			if spec == "8(8)" {
				autoLevel = -1 // one image per node: flat, the payload decides
			}
			for k := range want {
				for level, col := range map[Level]int{LevelFlat: -1, LevelTwo: 4, LevelThree: 5, LevelAuto: autoLevel} {
					for pi, pl := range payloads {
						sized, unsized := col, col
						if col < 0 {
							sized, unsized = pi, 0
						}
						if got := (Policy{Level: level, Tuning: AllAuto()}).algFor(Kind(k), v, pl.elems, pl.elemSize); got != want[k][sized] {
							t.Errorf("%s %s auto %v/%v: %q, want %q", spec, Kind(k), level, pl, got, want[k][sized])
						}
						// Without the auto entry the level alone decides.
						if got := (Policy{Level: level}).algFor(Kind(k), v, pl.elems, pl.elemSize); got != want[k][unsized] {
							t.Errorf("%s %s %v/%v: %q, want %q", spec, Kind(k), level, pl, got, want[k][unsized])
						}
					}
				}
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

package core

import (
	"math"
	"testing"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
)

// TestAsyncAgreementWithBlocking runs every async collective next to its
// blocking counterpart on the cross-validation shapes and checks
// bit-identical results (the registry cross-validation also covers this via
// the nb-* table entries; this test additionally drives the true split-phase
// path — initiate, compute, wait — rather than initiate+immediate-wait).
func TestAsyncAgreementWithBlocking(t *testing.T) {
	for _, spec := range crossShapes {
		t.Run(spec, func(t *testing.T) {
			w := newWorld(t, spec)
			n := w.NumImages()
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				for ep := 0; ep < 3; ep++ {
					const elems = 33
					blocking := make([]float64, elems)
					async := make([]float64, elems)
					for i := range blocking {
						blocking[i] = float64(((im.Rank() + 1) * (i + 1 + ep)) % 256)
						async[i] = blocking[i]
					}
					RunAllreduce("rd", v, blocking, coll.Sum)
					h := v.Img.StartOp(func() { RunAllreduce("nb-rd", v, async, coll.Sum) })
					im.Compute(5000) // overlap window: rounds progress in here
					h.Wait()
					for i := range blocking {
						if math.Float64bits(blocking[i]) != math.Float64bits(async[i]) {
							t.Errorf("ep%d elem%d: async %v != blocking %v", ep, i, async[i], blocking[i])
							return
						}
					}

					root := ep % n
					bbuf := make([]float64, elems)
					abuf := make([]float64, elems)
					if v.Rank == root {
						for i := range bbuf {
							bbuf[i] = float64(root*100 + i)
							abuf[i] = bbuf[i]
						}
					}
					RunBroadcast("2level", v, root, bbuf)
					hb := v.Img.StartOp(func() { RunBroadcast("nb-2level", v, root, abuf) })
					im.Compute(5000)
					hb.Wait()
					for i := range bbuf {
						if bbuf[i] != abuf[i] {
							t.Errorf("bcast ep%d elem%d: async %v != blocking %v", ep, i, abuf[i], bbuf[i])
							return
						}
					}

					mine := []float64{float64(im.Rank()*10 + ep)}
					bout := make([]float64, n)
					aout := make([]float64, n)
					RunAllgather("ring", v, mine, bout)
					hg := v.Img.StartOp(func() { RunAllgather("nb-2level", v, mine, aout) })
					im.Compute(5000)
					hg.Wait()
					for i := range bout {
						if bout[i] != aout[i] {
							t.Errorf("allgather ep%d elem%d: async %v != blocking %v", ep, i, aout[i], bout[i])
							return
						}
					}
				}
			})
		})
	}
}

// TestAsyncOverlapHidesCollectiveLatency is the subsystem's reason to exist:
// initiate + compute + wait must finish strictly sooner than compute +
// blocking collective, because the collective's rounds progress behind the
// compute.
func TestAsyncOverlapHidesCollectiveLatency(t *testing.T) {
	const elems = 128
	const flops = 3e4 // ~55 us of compute, comparable to the collective
	run := func(overlapped bool) sim.Time {
		w := newWorld(t, "16(2)")
		return w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			buf := make([]float64, elems)
			for i := range buf {
				buf[i] = float64(im.Rank() + i)
			}
			for ep := 0; ep < 5; ep++ {
				if overlapped {
					h := v.Img.StartOp(func() { RunAllreduce("nb-2level", v, buf, coll.Sum) })
					im.Compute(flops)
					h.Wait()
				} else {
					im.Compute(flops)
					RunAllreduce("2level", v, buf, coll.Sum)
				}
			}
		})
	}
	blocking := run(false)
	overlapped := run(true)
	if overlapped >= blocking {
		t.Fatalf("overlap did not pay: overlapped %d ns >= blocking %d ns", overlapped, blocking)
	}
	t.Logf("blocking %d ns, overlapped %d ns (%.2fx)", blocking, overlapped,
		float64(blocking)/float64(overlapped))
}

// TestAsyncConcurrentHandles drives two different collectives in flight at
// once (a co_sum and a co_broadcast) plus a blocking barrier while they are
// pending — the progress-engine interleavings the examples rely on.
func TestAsyncConcurrentHandles(t *testing.T) {
	w := newWorld(t, "16(4)")
	n := w.NumImages()
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		p := Policy{Level: LevelAuto}
		sum := []float64{float64(im.Rank() + 1)}
		bc := []float64{0}
		if v.Rank == 2 {
			bc[0] = 42
		}
		h1 := v.Img.StartOp(func() { RunAllreduce("nb-2level", v, sum, coll.Sum) })
		h2 := v.Img.StartOp(func() { RunBroadcast("nb-binomial", v, 2, bc) })
		p.Barrier(v) // a blocking collective while two handles are pending
		im.Compute(20000)
		h2.Wait()
		h1.Wait()
		want := float64(n*(n+1)) / 2
		if sum[0] != want {
			t.Errorf("co_sum = %v, want %v", sum[0], want)
		}
		if bc[0] != 42 {
			t.Errorf("co_broadcast = %v, want 42", bc[0])
		}
		if im.Pending() != 0 {
			t.Errorf("%d operations still pending after waits", im.Pending())
		}
	})
}

// TestAsyncSameFamilyHandlesSerialize pins the episode gate: two handles of
// the same machine family started back to back complete in order and
// produce both results correctly.
func TestAsyncSameFamilyHandlesSerialize(t *testing.T) {
	w := newWorld(t, "12(3)")
	n := w.NumImages()
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		a := []float64{1}
		b := []float64{10}
		h1 := v.Img.StartOp(func() { RunAllreduce("nb-rd", v, a, coll.Sum) })
		h2 := v.Img.StartOp(func() { RunAllreduce("nb-rd", v, b, coll.Sum) })
		im.Compute(30000)
		h2.Wait() // waiting out of order must still drive h1 first
		h1.Wait()
		if a[0] != float64(n) {
			t.Errorf("first co_sum = %v, want %v", a[0], float64(n))
		}
		if b[0] != float64(10*n) {
			t.Errorf("second co_sum = %v, want %v", b[0], float64(10*n))
		}
	})
}

// TestBcast2RepeatedRootHandoffFlowControl: back-to-back broadcasts from
// the SAME non-leader root. The root's handoff has no downstream wait on
// the root's critical path, so without the handoff credit (flag slots 5/6)
// episode e+2's payload overwrites episode e's unconsumed same-parity
// landing region at the root's node leader — the async machines initiate
// instantly and hit this at depth 3; the blocking algorithm hits it the
// same way when the caller loops. Both paths must deliver every episode's
// payload intact.
func TestBcast2RepeatedRootHandoffFlowControl(t *testing.T) {
	const episodes = 5
	for _, alg := range []string{"2level", "nb-2level"} {
		t.Run(alg, func(t *testing.T) {
			name := alg
			w := newWorld(t, "16(4)")
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				const root = 1 // non-leader (leader of node 0 is rank 0)
				if name == "nb-2level" {
					// Initiate every episode before waiting any: the
					// worst-case pile-up.
					bufs := make([][]float64, episodes)
					handles := make([]*pgas.AsyncOp, episodes)
					for ep := 0; ep < episodes; ep++ {
						bufs[ep] = []float64{0}
						if v.Rank == root {
							bufs[ep][0] = float64(111 * (ep + 1))
						}
						handles[ep] = v.Img.StartOp(func() { RunBroadcast("nb-2level", v, root, bufs[ep]) })
					}
					for ep := 0; ep < episodes; ep++ {
						handles[ep].Wait()
						if want := float64(111 * (ep + 1)); bufs[ep][0] != want {
							t.Errorf("rank %d ep%d: got %v, want %v", v.Rank, ep, bufs[ep][0], want)
						}
					}
					return
				}
				for ep := 0; ep < episodes; ep++ {
					buf := []float64{0}
					if v.Rank == root {
						buf[0] = float64(111 * (ep + 1))
					}
					RunBroadcast(name, v, root, buf)
					if want := float64(111 * (ep + 1)); buf[0] != want {
						t.Errorf("rank %d ep%d: got %v, want %v", v.Rank, ep, buf[0], want)
					}
				}
			})
		})
	}
}

// TestAsyncTestPolling exercises the Test/Done probes.
func TestAsyncTestPolling(t *testing.T) {
	w := newWorld(t, "8(2)")
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		buf := []float64{1}
		h := v.Img.StartOp(func() { RunAllreduce("nb-2level", v, buf, coll.Sum) })
		for !h.Test() {
			im.Sleep(500 * sim.Nanosecond)
		}
		if !h.Done() {
			t.Error("Done() false after Test() returned true")
		}
		if buf[0] != 8 {
			t.Errorf("co_sum = %v, want 8", buf[0])
		}
	})
}

// TestPolicyAsyncRunsCustomAlgorithmSplitPhase: an algorithm with no "nb-"
// alias, pinned by Tuning, is split-phase like any other — the policy async
// path starts it on a coroutine, the handle is in flight after initiation,
// and its rounds overlap the compute between initiate and wait.
func TestPolicyAsyncRunsCustomAlgorithmSplitPhase(t *testing.T) {
	w := newWorld(t, "8(2)")
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		p := Policy{Level: LevelAuto, Tuning: Tuning{KindAllreduce: "tree"}}
		const flops = 3e4
		p.Barrier(v)
		t0 := im.Now()
		buf := []float64{1}
		PolicyAllreduce(p, v, buf, coll.Sum)
		tColl := im.Now() - t0
		t0 = im.Now()
		im.Compute(flops)
		tComp := im.Now() - t0
		p.Barrier(v)
		t0 = im.Now()
		buf = []float64{1}
		h := v.Img.StartOp(func() { PolicyAllreduce(p, v, buf, coll.Sum) })
		if h.Done() {
			t.Error("tuned algorithm completed at initiation: it ran blocking")
		}
		im.Compute(flops)
		h.Wait()
		if tOv := im.Now() - t0; tOv >= tComp+tColl {
			t.Errorf("image %d: overlapped episode %d ns, compute %d + collective %d ns: no overlap", im.Rank(), tOv, tComp, tColl)
		}
		if buf[0] != 8 {
			t.Errorf("co_sum = %v, want 8", buf[0])
		}
	})
}

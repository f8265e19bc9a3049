package pgas_test

import (
	"testing"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
)

// TestSimBoxPutZeroAlloc pins the sim's write-at-issue put: in steady state a
// Box.PutAt to a same-node target and one to an off-node target allocate
// nothing; the payload goes straight into the target's region, so the box's
// coarray never grows a staging pool; and its guard holds one record per
// target, the put in flight, the landed ones dropped.
func TestSimBoxPutZeroAlloc(t *testing.T) {
	var co *pgas.Coarray[float64]
	most := 0 // the most records the guard held for a target right after a put
	allocs := pgas.SimSegmentAllocs(t, func(w *pgas.World) func(*pgas.Image, *bool) {
		return func(im *pgas.Image, stop *bool) {
			v := team.Initial(w, im)
			st := coll.GetState(v, coll.Alg{"test.boxalloc"}, 1)
			st.Next()
			box := coll.NewBox[float64](st, "", 64, 1)
			buf := make([]float64, 64)
			switch im.Rank() {
			case 0:
				co = pgas.OnlyCoarray[float64](v.T.Registry())
				for !*stop {
					for _, target := range []int{1, 2} { // same node, off node
						box.PutAt(target, 0, 0, buf, 0, pgas.ViaAuto)
						n, _ := pgas.Flights(co, target)
						most = max(most, n)
					}
					im.Sleep(10 * sim.Microsecond)
				}
			case 1, 2:
				for {
					st.Arrivals(0, 1)
					box.Take(0, buf)
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("sim Box.PutAt allocates %.1f objects per segment, want 0", allocs)
	}
	if co == nil {
		t.Fatal("the team's registry holds no single float64 coarray, the box's")
	}
	if _, guarded := pgas.Flights(co, 1); !guarded {
		t.Fatalf("the box's coarray %q is not write-at-issue", co.Name())
	}
	if n := pgas.StagePool(co); n != 0 {
		t.Errorf("the box's coarray staged %d payloads, want none", n)
	}
	if most != 1 {
		t.Errorf("the guard held up to %d records for a target with one put in flight, want 1", most)
	}
}

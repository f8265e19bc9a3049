package coll

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
)

// panicsWith runs f and returns whether it panicked with a message holding
// want.
func panicsWith(f func(), want string) (ok bool, got any) {
	defer func() {
		got = recover()
		ok = got != nil && strings.Contains(fmt.Sprint(got), want)
	}()
	f()
	return false, nil
}

// guardElems is the region size of the guard tests' two-region boxes, on a
// 2(2) world: image 0 on node 0, image 1 on node 1.
const guardElems = 16

// TestReadBeforeArrivalPanics: on the sim a Put's payload is in the target's
// region from its issue, so a read before its data leg lands would see the
// right bytes by luck — every episode here sends the same payload, which
// stale bytes would match as well. The guard refuses it instead: a TakeAt and
// a Landed of the range, after the put was issued and before its Arrivals,
// panic with a read before arrival; a Landed of the other region does not;
// after Arrivals both reads return the payload.
func TestReadBeforeArrivalPanics(t *testing.T) {
	const us = sim.Time(1000)
	w := newWorld(t, "2(2)")
	payload := slices.Repeat([]float64{7}, guardElems)
	w.Run(func(im *pgas.Image) {
		st := GetState(team.Initial(w, im), Alg{"test.guard.read"}, 1)
		for ep := 1; ep <= 4; ep++ {
			st.Next()
			box := NewBox[float64](st, "g", guardElems, 2)
			issue := sim.Time(ep) * 100 * us
			if im.Rank() == 0 {
				im.Sleep(issue - im.Now())
				box.Put(1, 0, payload, 0, pgas.ViaConduit)
				continue
			}
			im.Sleep(issue + 10 - im.Now()) // issued, not landed
			dst := make([]float64, guardElems)
			if ok, got := panicsWith(func() { box.TakeAt(0, 3, dst[:4]) }, "read before arrival"); !ok {
				t.Errorf("episode %d: TakeAt before Arrivals at %d ns: recovered %v, want a read before arrival", ep, im.Now(), got)
			}
			if ok, got := panicsWith(func() { box.Landed(0, 0, guardElems) }, "read before arrival"); !ok {
				t.Errorf("episode %d: Landed before Arrivals at %d ns: recovered %v, want a read before arrival", ep, im.Now(), got)
			}
			box.Landed(1, 0, guardElems) // nothing in flight there
			st.Arrivals(0, 1)
			box.Take(0, dst)
			if !slices.Equal(dst, payload) || !slices.Equal(box.Landed(0, 0, guardElems), payload) {
				t.Errorf("episode %d: landed %v, want %v", ep, dst, payload)
			}
		}
	})
}

// TestOverwriteBeforeArrivalPanics: a put to a range that a put still in
// flight lands on panics with an overwrite before arrival, before it writes
// anything, so the first put lands intact; a put beside it, and an empty one
// inside it, do not panic.
func TestOverwriteBeforeArrivalPanics(t *testing.T) {
	w := newWorld(t, "2(2)")
	first := slices.Repeat([]float64{1}, guardElems)
	w.Run(func(im *pgas.Image) {
		st := GetState(team.Initial(w, im), Alg{"test.guard.overwrite"}, 2)
		st.Next()
		box := NewBox[float64](st, "g", guardElems, 2)
		if im.Rank() == 0 {
			box.Put(1, 0, first, 0, pgas.ViaConduit)
			if ok, got := panicsWith(func() { box.PutAt(1, 0, guardElems/2, []float64{2, 2}, 0, pgas.ViaConduit) }, "overwrite before arrival"); !ok {
				t.Errorf("a put over one in flight: recovered %v, want an overwrite before arrival", got)
			}
			box.PutAt(1, 0, guardElems/2, nil, 1, pgas.ViaConduit) // empty: lands nothing
			box.Put(1, 1, first, 1, pgas.ViaConduit)               // the next region: no overlap
			return
		}
		st.Arrivals(0, 1)
		st.Arrivals(1, 2)
		if got := box.Landed(0, 0, guardElems); !slices.Equal(got, first) {
			t.Errorf("region 0 holds %v after the refused overwrite, want %v", got, first)
		}
	})
}

// TestDroppedPutNeverLands: under a FaultLinkDrop plan a put+flag pair lost on
// the wire is recorded as never landing — a read of its range panics however
// late it comes — and a later put to the range (a retry) supersedes the record
// without an overwrite panic, lands and reads back.
func TestDroppedPutNeverLands(t *testing.T) {
	const us = sim.Time(1000)
	w := newWorld(t, "2(2)")
	if err := w.InjectFaults(&pgas.FaultPlan{Seed: 1, Events: []pgas.FaultEvent{
		{At: 0, Duration: 50 * us, Kind: pgas.FaultLinkDrop, Node: 0, Node2: 1, Factor: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	lost, retry := slices.Repeat([]float64{1}, guardElems), slices.Repeat([]float64{2}, guardElems)
	w.Run(func(im *pgas.Image) {
		st := GetState(team.Initial(w, im), Alg{"test.guard.drop"}, 1)
		st.Next()
		box := NewBox[float64](st, "g", guardElems, 2)
		if im.Rank() == 0 {
			box.Put(1, 0, lost, 0, pgas.ViaConduit)
			im.Sleep(60*us - im.Now()) // past the drop window
			box.Put(1, 0, retry, 0, pgas.ViaConduit)
			return
		}
		im.Sleep(40 * us) // long after the lost put would have landed
		if ok, got := panicsWith(func() { box.Landed(0, 0, guardElems) }, "never lands"); !ok {
			t.Errorf("a read of the lost put's range at %d ns: recovered %v, want a read before arrival that never lands", im.Now(), got)
		}
		st.Arrivals(0, 1)
		if got := box.Landed(0, 0, guardElems); !slices.Equal(got, retry) {
			t.Errorf("the retry landed %v, want %v", got, retry)
		}
	})
}

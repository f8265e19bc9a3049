package coll

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
)

// TestGate: Gate(slot, 1) is the sender's credit gate — the first send passes,
// every later one returns exactly when the previous same-slot send has been
// credited; Gate(slot, k) counts k sends, all of whose credits the next gate
// on the slot waits for.
func TestGate(t *testing.T) {
	const us = sim.Time(1000)
	w := newWorld(t, "2(2)")
	w.Run(func(im *pgas.Image) {
		st := GetState(team.Initial(w, im), Alg{"test.gate"}, 2)
		st.Next()
		if im.Rank() == 1 {
			// The consumer: one credit on slot 0 at 50 and at 120 µs, three
			// on slot 1 at 210, 220, 230 µs.
			for _, c := range []struct{ at, slot int }{{50, 0}, {120, 0}, {210, 1}, {220, 1}, {230, 1}} {
				im.Sleep(sim.Time(c.at)*us - im.Now())
				im.NotifyAdd(st.Flags, 0, c.slot, 1, pgas.ViaConduit)
			}
			return
		}
		gate := func(slot, n int, credits int64, notBefore sim.Time) {
			t.Helper()
			st.Gate(slot, n)
			if got := st.Flags.Peek(0, slot); got != credits || im.Now() < notBefore {
				t.Errorf("Gate(%d, %d) returned at %d ns holding %d credits, want %d credits, sent at %d ns", slot, n, im.Now(), got, credits, notBefore)
			}
		}
		gate(0, 1, 0, 0)
		if im.Now() != 0 {
			t.Errorf("the first Gate waited until %d", im.Now())
		}
		gate(0, 1, 1, 50*us)
		gate(0, 1, 2, 120*us)
		gate(1, 3, 0, 0) // nothing counted before: passes, counts three
		gate(1, 2, 3, 230*us)
		if e := st.expect(); e[0] != 3 || e[1] != 5 {
			t.Errorf("counted sends %v, want [3 5]", e)
		}
	})
}

// TestPublishOrder: the done wave stamps the group in order starting at first,
// skipping the caller — root-relative from the root's own index, absolute rank
// order from index 0. Stamps issued by one image to targets at the same
// distance arrive in issue order, which is how the order is observed here.
func TestPublishOrder(t *testing.T) {
	const root = 4
	for _, c := range []struct {
		name  string
		first int
		want  []int
	}{
		{"root-relative", root, []int{5, 0, 1, 2, 3}},
		{"absolute", 0, []int{0, 1, 2, 3, 5}},
	} {
		w := newWorld(t, "6(2)") // node 0: ranks 0-2, node 1: ranks 3-5
		at := make([]sim.Time, w.NumImages())
		w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			st := GetState(v, Alg{"test.publish"}, 1)
			ep := st.Next()
			if v.Rank == root {
				st.Publish(0, TeamRanks(v), c.first, pgas.ViaConduit)
				if st.Flags.Peek(root, 0) != ep {
					t.Errorf("%s: the root did not stamp itself", c.name)
				}
				return
			}
			im.WaitFlagGE(st.Flags, im.Rank(), 0, ep)
			at[v.Rank] = im.Now()
		})
		for i, a := range c.want {
			for _, b := range c.want[i+1:] {
				if (a < 3) == (b < 3) && at[a] >= at[b] {
					t.Errorf("%s: member %d stamped at %d, member %d at %d: want order %v", c.name, a, at[a], b, at[b], c.want)
				}
			}
		}
	}
}

// TestBox: a box is the running episode's parity half of its role's scratch (a
// coarray of 2*regions*cap elements) —
// region i of parity p starts at element (p*regions+i)*cap of the coarray, for
// Region and for Put alike — and nothing reaches the other half: the two
// parities never alias, and a put that would leave the half panics.
func TestBox(t *testing.T) {
	const elems, regions, cap_ = 5, 3, 16
	w := newWorld(t, "2(2)")
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		st := GetState(v, Alg{"test.box"}, 1)
		peer := 1 - v.Rank
		for ep := st.Next(); ep <= 2; ep = st.Next() {
			parity := int(ep % 2)
			box := NewBox[float64](st, "t", elems, regions)
			if box.Cap() != cap_ {
				t.Fatalf("capacity %d, want the size class %d", box.Cap(), cap_)
			}
			slab := pgas.Local(box.co, im)
			for i := 0; i < regions; i++ {
				r, off := box.Region(i), (parity*regions+i)*cap_
				if &r[0] != &slab[off] || len(r) != (regions-i)*cap_ || cap(r) != len(r) {
					t.Errorf("episode %d: Region(%d) has %d elements (cap %d) and does not start at element %d", ep, i, len(r), cap(r), off)
				}
			}
			for i := range box.Region(0) {
				box.Region(0)[i] = float64(ep)
			}
			// Mark the peer's regions: the head of region i and, with PutAt,
			// its element 3.
			for i := 0; i < regions; i++ {
				box.Put(peer, i, []float64{float64(10*ep) + float64(i)}, 0, pgas.ViaConduit)
				box.PutAt(peer, i, 3, []float64{-float64(i)}, 0, pgas.ViaConduit)
			}
			im.WaitFlagGE(st.Flags, im.Rank(), 0, ep*2*regions)
			for i := 0; i < regions; i++ {
				if off := (parity*regions + i) * cap_; slab[off] != float64(10*ep)+float64(i) || slab[off+3] != -float64(i) {
					t.Errorf("episode %d: Put to region %d landed %v, %v at element %d", ep, i, slab[off], slab[off+3], off)
				}
			}
			for _, bad := range []func(){
				func() { box.Put(peer, regions-1, make([]float64, cap_+1), 0, pgas.ViaConduit) },
				func() { box.PutAt(peer, 0, regions*cap_, []float64{1}, 0, pgas.ViaConduit) },
				func() { box.Put(peer, -1, []float64{1}, 0, pgas.ViaConduit) },
				func() { box.Region(-1) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("episode %d: an access outside the parity half did not panic", ep)
						}
					}()
					bad()
				}()
			}
		}
		// Episode 1 filled parity 1, episode 2 parity 0; neither touched the
		// other's half apart from the marks above.
		for i, x := range pgas.Local(NewBox[float64](st, "t", elems, regions).co, im) {
			if want := float64(2 - i/(regions*cap_)); i%cap_ != 0 && i%cap_ != 3 && x != want {
				t.Fatalf("element %d holds %v, want episode %v's fill", i, x, want)
			}
		}
	})
}

// TestProtocolVocabularyIsClosed: outside coll.go no algorithm file of
// internal/coll or internal/core allocates scratch, reads the expectation
// counters or spells the injection gate by hand; Box, Arrivals/Gate and
// Inject/Publish are the only way to those.
func TestProtocolVocabularyIsClosed(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	core, err := filepath.Glob("../core/*.go")
	if err != nil || len(core) == 0 {
		t.Fatalf("no files of internal/core found: %v", err)
	}
	for _, f := range append(files, core...) {
		if f == "coll.go" || strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, banned := range []string{"cratch[", ".Expect(", ".expect(", "ep-2", "ep - 2"} {
				if strings.Contains(line, banned) {
					t.Errorf("%s:%d spells protocol arithmetic outside coll.go: %s", f, i+1, strings.TrimSpace(line))
				}
			}
		}
	}
}

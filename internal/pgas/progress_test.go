package pgas

import (
	"strings"
	"testing"
)

// TestSplitPhaseBodyYieldsOnOwnFlagWait: inside a split-phase body an unmet
// WaitFlagGE on the image's own row parks the body, not the image — the image
// gets control back, keeps computing, and the body finishes behind it once
// the flag arrives. A body started from inside another body is driven by the
// image too, and Wait on it from the outer body yields the outer one.
func TestSplitPhaseBodyYieldsOnOwnFlagWait(t *testing.T) {
	w := newTestWorld(t, 2, 1)
	fl := NewFlags(w, "sp", 2)
	w.Run(func(im *Image) {
		if im.Rank() == 1 {
			im.Sleep(30 * Microsecond)
			im.NotifyAdd(fl, 0, 1, 1, ViaAuto)
			im.Sleep(30 * Microsecond)
			im.NotifyAdd(fl, 0, 0, 1, ViaAuto)
			return
		}
		var order []string
		outer := im.StartOp(func() {
			im.WaitFlagGE(fl, 0, 0, 1)
			order = append(order, "outer woke")
			inner := im.StartOp(func() {
				im.WaitFlagGE(fl, 0, 1, 2) // needs the image's own notify below
				order = append(order, "inner done")
			})
			inner.Wait()
			order = append(order, "outer done")
		})
		if outer.Done() || im.Running() != nil {
			t.Fatal("StartOp did not return control with the body parked")
		}
		if n := im.Pending(); n != 1 {
			t.Fatalf("Pending = %d after one StartOp, want 1", n)
		}
		im.Compute(1e5) // ~180 us: polls the engine while the flags arrive
		if len(order) != 1 || im.Pending() != 2 {
			t.Fatalf("after compute: order %v, %d pending; want the outer body parked on the inner one", order, im.Pending())
		}
		im.NotifyAdd(fl, 0, 1, 1, ViaAuto)
		outer.Wait()
		if got := strings.Join(order, ", "); got != "outer woke, inner done, outer done" {
			t.Errorf("order = %q", got)
		}
		if im.Pending() != 0 {
			t.Errorf("%d operations pending after Wait", im.Pending())
		}
		// A finished handle lives on (the caller holds it, a collective state
		// remembers its last holder) but pins nothing the body captured.
		if outer.body != nil || outer.on != nil || outer.f != nil {
			t.Errorf("finished handle still references body=%v on=%v f=%v", outer.body != nil, outer.on, outer.f)
		}
	})
}

// TestSplitPhaseBodyPanicReachesImage: a panic inside a body surfaces at the
// call that resumed it, with its value intact, and finishes the handle.
func TestSplitPhaseBodyPanicReachesImage(t *testing.T) {
	w := newTestWorld(t, 1, 1)
	fl := NewFlags(w, "sp-panic", 1)
	w.Run(func(im *Image) {
		boom := &FailedImageError{Op: "inside the body"}
		h := im.StartOp(func() {
			im.WaitFlagGE(fl, 0, 0, 1)
			panic(boom)
		})
		im.NotifyAdd(fl, 0, 0, 1, ViaAuto)
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Errorf("Wait recovered %v, want the body's own panic value", r)
				}
			}()
			h.Wait()
		}()
		if !h.Done() || im.Pending() != 0 || im.Running() != nil {
			t.Errorf("after the panic: done=%v pending=%d running=%v", h.Done(), im.Pending(), im.Running())
		}
	})
}

// TestUnfinishedOpPanicsWorldRun: on a raw world (no panic containment) a
// body that returns with an operation in flight is re-raised by Run like any
// other programming error, and its coroutine is stopped first.
func TestUnfinishedOpPanicsWorldRun(t *testing.T) {
	w := newTestWorld(t, 1, 1)
	fl := NewFlags(w, "sp-never", 1)
	unwound := false
	defer func() {
		err, _ := recover().(error)
		if err == nil || !strings.Contains(err.Error(), "image 0 returned with 1 split-phase operation(s) unfinished") {
			t.Errorf("Run panicked with %v, want the unfinished-operation error", err)
		}
		if !unwound {
			t.Error("the parked body was not unwound")
		}
	}()
	w.Run(func(im *Image) {
		im.StartOp(func() {
			defer func() { unwound = true }()
			im.WaitFlagGE(fl, 0, 0, 1)
		})
	})
}

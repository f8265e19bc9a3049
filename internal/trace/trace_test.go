package trace

import (
	"strings"
	"testing"
)

func TestMessageClassification(t *testing.T) {
	s := New()
	s.Message(OpPut, true, false, 100)
	s.Message(OpPut, false, false, 200)
	s.Message(OpNotify, false, true, 8)
	sn := s.Snapshot()
	if sn.IntraMsgs != 1 || sn.IntraBytes != 100 {
		t.Fatalf("intra = %d/%d", sn.IntraMsgs, sn.IntraBytes)
	}
	if sn.InterMsgs != 1 || sn.InterBytes != 200 {
		t.Fatalf("inter = %d/%d", sn.InterMsgs, sn.InterBytes)
	}
	if sn.SelfMsgs != 1 {
		t.Fatalf("self = %d", sn.SelfMsgs)
	}
	if sn.TotalMsgs() != 2 {
		t.Fatalf("total = %d", sn.TotalMsgs())
	}
	if sn.Ops[OpPut] != 2 || sn.Ops[OpNotify] != 1 {
		t.Fatalf("ops = %v", sn.Ops)
	}
}

func TestCountAndReset(t *testing.T) {
	s := New()
	s.Count(OpBarrier)
	s.Count(OpBarrier)
	if s.Snapshot().Ops[OpBarrier] != 2 {
		t.Fatal("count failed")
	}
	s.Reset()
	sn := s.Snapshot()
	if sn.TotalMsgs() != 0 || len(sn.Ops) != 0 {
		t.Fatal("reset failed")
	}
}

func TestDiff(t *testing.T) {
	s := New()
	s.Message(OpPut, true, false, 10)
	before := s.Snapshot()
	s.Message(OpPut, true, false, 30)
	s.Message(OpGet, false, false, 5)
	d := s.Snapshot().Diff(before)
	if d.IntraMsgs != 1 || d.IntraBytes != 30 || d.InterMsgs != 1 {
		t.Fatalf("diff = %+v", d)
	}
	if d.Ops[OpPut] != 1 || d.Ops[OpGet] != 1 {
		t.Fatalf("diff ops = %v", d.Ops)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := New()
	s.Count(OpWait)
	sn := s.Snapshot()
	s.Count(OpWait)
	if sn.Ops[OpWait] != 1 {
		t.Fatal("snapshot not isolated from later mutation")
	}
}

func TestStringFormat(t *testing.T) {
	s := New()
	s.Message(OpPut, true, false, 64)
	s.Count(OpBarrier)
	out := s.Snapshot().String()
	if !strings.Contains(out, "intra: 1 msgs/64 B") {
		t.Fatalf("string = %q", out)
	}
	if !strings.Contains(out, "barrier=1") || !strings.Contains(out, "put=1") {
		t.Fatalf("ops missing from %q", out)
	}
}

func TestMaterialize(t *testing.T) {
	s := New()
	s.Materialize(MemCoarray, 4096)
	before := s.Snapshot()
	s.Materialize(MemCoarray, 1024)
	s.Materialize(MemFlags, 64)
	sn := s.Snapshot()
	if sn.CoarrayBytes != 5120 || sn.FlagBytes != 64 || sn.MaterializedBytes() != 5184 {
		t.Fatalf("snapshot = %+v", sn)
	}
	if d := sn.Diff(before); d.CoarrayBytes != 1024 || d.FlagBytes != 64 {
		t.Fatalf("diff = %+v", d)
	}
	if !strings.Contains(sn.String(), "materialized: 5184 B") {
		t.Fatalf("string = %q", sn.String())
	}
	s.Reset()
	if s.Snapshot().MaterializedBytes() != 0 {
		t.Fatal("reset failed")
	}
}

// TestAutoPickCounters: decisions are counted per (kind, algorithm) position,
// carried by Snapshot and Diff, cleared by Reset, and an idle collector's
// snapshot holds none.
func TestAutoPickCounters(t *testing.T) {
	s := New()
	if s.Snapshot().AutoPicks != [AutoKinds][AutoAlgs]int64{} {
		t.Fatal("a fresh collector reports auto decisions")
	}
	s.AutoPick(1, 4)
	before := s.Snapshot()
	s.AutoPick(1, 4)
	s.AutoPick(AutoKinds-1, AutoAlgs-1)
	sn := s.Snapshot()
	if sn.AutoPicks[1][4] != 2 || sn.AutoPicks[AutoKinds-1][AutoAlgs-1] != 1 {
		t.Fatalf("counters = %v", sn.AutoPicks)
	}
	if d := sn.Diff(before); d.AutoPicks[1][4] != 1 || d.AutoPicks[AutoKinds-1][AutoAlgs-1] != 1 {
		t.Fatalf("diff = %v", d.AutoPicks)
	}
	s.Reset()
	if s.Snapshot().AutoPicks != [AutoKinds][AutoAlgs]int64{} {
		t.Fatal("reset left auto decisions behind")
	}
}

package core

import (
	"math"
	"slices"
	"testing"
)

// FuzzTuningValidate: a Tuning with any entry set to any string validates
// without panicking, and is accepted exactly when the entry is empty, "auto"
// or a registered algorithm of the kind (an out-of-range kind sets nothing).
func FuzzTuningValidate(f *testing.F) {
	for _, k := range Kinds() {
		for _, name := range []string{"", AlgAuto, "nope", Algorithms(k)[0]} {
			f.Add(int(k), name)
		}
	}
	f.Add(-1, "rd")
	f.Add(len(Kinds()), "rd")
	f.Add(int(KindBarrier), "rd") // another kind's algorithm
	f.Fuzz(func(t *testing.T, k int, name string) {
		kind := Kind(k)
		err := Tuning{}.With(kind, name).Validate()
		want := !kind.valid() || name == "" || name == AlgAuto || slices.Contains(Algorithms(kind), name)
		if (err == nil) != want {
			t.Fatalf("Tuning{}.With(%d, %q).Validate() = %v, want accepted = %v", k, name, err, want)
		}
	})
}

// FuzzFirstMatch: the decision table is total. Every key — negative, zero or
// MaxInt in any field — finds a row of every kind's table, the row matches
// the key, and no earlier row does.
func FuzzFirstMatch(f *testing.F) {
	f.Add(8, 2, 8, 1024) // 64(8), 1 KiB
	f.Add(1, 1, 44, 32768)
	f.Add(8, 2, 512, 64)
	f.Add(0, 0, 0, 0)
	f.Add(-1, -1, -1, -1)
	f.Add(math.MaxInt, math.MaxInt, math.MaxInt, math.MaxInt)
	f.Add(math.MinInt, 1, 1, math.MaxInt)
	f.Fuzz(func(t *testing.T, perNode, sockets, nodes, bytes int) {
		key := AutoKey{PerNode: perNode, Sockets: sockets, Nodes: nodes, Bytes: bytes}
		for _, k := range Kinds() {
			rows := autoTable[k]
			i := FirstMatch(rows, key)
			if i < 0 || i >= len(rows) || !rows[i].matches(key) {
				t.Fatalf("%s: FirstMatch(%+v) = %d of %d rows", k, key, i, len(rows))
			}
			if j := slices.IndexFunc(rows[:i], func(r AutoRow) bool { return r.matches(key) }); j >= 0 {
				t.Fatalf("%s: FirstMatch(%+v) = %d, but row %d matches", k, key, i, j)
			}
			if row, at := AutoPick(k, key); at != i || row != rows[i] {
				t.Fatalf("%s: AutoPick(%+v) = row %d, FirstMatch says %d", k, key, at, i)
			}
		}
	})
}

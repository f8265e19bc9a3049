package core

import (
	"slices"
	"strings"
	"testing"
)

// TestAutoTableIsTotalAndHonest walks the decision table's whole key space —
// on every axis, each bound a row of the kind uses, the value before and the
// value after it — and holds the generated rows to what AutoPick promises:
// every key finds a row; what a row names is a registered algorithm of the
// kind, not an "nb-" alias, and its flat pick consults no placement; rows are
// sorted, and every one of them is some key's first match.
func TestAutoTableIsTotalAndHonest(t *testing.T) {
	around := func(vals []int, least int) []int {
		out := []int{least, 1 << 40}
		for _, v := range vals {
			if v != inf {
				out = append(out, max(v-1, least), v, v+1)
			}
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	for _, k := range Kinds() {
		rows := autoTable[k]
		if len(rows) == 0 {
			t.Fatalf("%s: no rows", k)
		}
		var perNode, sockets, nodes, below []int
		for i, r := range rows {
			for _, name := range []string{r.Alg, r.Flat} {
				if !slices.Contains(Algorithms(k), name) || strings.HasPrefix(name, "nb-") {
					t.Errorf("%s row %d (%v): %q is not an algorithm of the kind", k, i, r, name)
				}
			}
			if HierarchyAware(r.Flat) {
				t.Errorf("%s row %d (%v): flat pick %q is hierarchy-aware", k, i, r, r.Flat)
			}
			if i > 0 {
				p := rows[i-1]
				if slices.Compare([]int{p.PerNode, p.Sockets, p.Nodes, p.Below}, []int{r.PerNode, r.Sockets, r.Nodes, r.Below}) >= 0 {
					t.Errorf("%s rows %d and %d are out of order: %v, %v", k, i-1, i, p, r)
				}
			}
			perNode, sockets, nodes, below = append(perNode, r.PerNode), append(sockets, r.Sockets), append(nodes, r.Nodes), append(below, r.Below)
		}
		if last := rows[len(rows)-1]; last.PerNode != inf || last.Sockets != inf || last.Nodes != inf || last.Below != inf {
			t.Errorf("%s: last row %v is not open on every side", k, last)
		}
		matched := make([]bool, len(rows))
		keys := 0
		for _, pn := range around(perNode, 1) {
			for _, so := range around(sockets, 1) {
				for _, no := range around(nodes, 1) {
					for _, by := range around(below, 0) {
						keys++
						key := AutoKey{PerNode: pn, Sockets: so, Nodes: no, Bytes: by}
						i := FirstMatch(rows, key)
						if i < 0 {
							t.Fatalf("%s: no row for %+v", k, key)
						}
						matched[i] = true
					}
				}
			}
		}
		for i, m := range matched {
			if !m {
				t.Errorf("%s row %d (%v) is unreachable: no key of %d matched it first", k, i, rows[i], keys)
			}
		}
	}
}

// TestAutoRowString pins how the regret report prints a row.
func TestAutoRowString(t *testing.T) {
	r := AutoRow{PerNode: 4, Sockets: inf, Nodes: 8, Below: 4096, Alg: "2level", Flat: "rd"}
	if got, want := r.String(), "<=4 per node, any sockets, <=8 nodes, <4096 B"; got != want {
		t.Errorf("row prints %q, want %q", got, want)
	}
}

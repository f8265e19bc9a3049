package topology

import (
	"fmt"
	"testing"
)

// FuzzParseSpec: any string is either refused or yields a topology whose
// image and node counts, written back in the paper's notation, parse to the
// same topology — every image on a node of the machine, no core shared.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"4(4)", "16(16)", "16(2)", "64(8)", "256(32)", "352(44)", "9(3)", "7(2)", "5(8)", " 16 ( 2 ) ",
		"", "64", "(8)", "64(", "64)8(", "x(8)", "64(y)", "0(4)", "4(0)", "-4(2)",
		"65536(8192)", "1048577(1)", "1(1048577)", "99999999999999999999(1)", "9223372036854775807(9223372036854775807)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := ParseSpec(spec)
		if err != nil {
			return
		}
		n, k := topo.NumImages(), topo.NumNodes()
		again, err := ParseSpec(fmt.Sprintf("%d(%d)", n, k))
		if err != nil || again.NumImages() != n || again.NumNodes() != k {
			t.Fatalf("ParseSpec(%q) = %d(%d), which parses back to %v, %v", spec, n, k, again, err)
		}
		cores := topo.CoresPerNode()
		taken := make([]bool, k*cores)
		for r := 0; r < n; r++ {
			l := topo.LocOf(r)
			if l.Node < 0 || l.Node >= k || l.Core < 0 || l.Core >= cores || taken[l.Node*cores+l.Core] {
				t.Fatalf("ParseSpec(%q): image %d at %+v on a %d-node machine of %d cores each", spec, r, l, k, cores)
			}
			taken[l.Node*cores+l.Core] = true
		}
	})
}

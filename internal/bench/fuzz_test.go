package bench

import (
	"strings"
	"testing"

	"cafteams/internal/topology"
)

// FuzzParseShape: any string is either refused or a machine shape of positive
// dimensions, and what topology.ParseShape accepts in full ("NxSxC")
// bench.parseSpec places an image on every core of — or refuses for its size.
// parseSpec itself never panics, whichever of its two notations it is given.
func FuzzParseShape(f *testing.F) {
	for _, s := range []string{
		"16x2x4", "8x1x8", "512x2x4", "16", "16x8", " 4 x 2 x 2 ", "64(8)", "9(3)",
		"", "x", "16x", "16x7", "0x2x4", "-1x2x4", "1x2x3x4", "axbxc", "2x2(2)",
		"1048576x1048576x1048576", "1048577x1x1", "4294967296x4294967296x1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		nodes, sockets, cores, err := topology.ParseShape(s)
		if err == nil && (nodes <= 0 || sockets <= 0 || cores <= 0) {
			t.Fatalf("ParseShape(%q) = %dx%dx%d", s, nodes, sockets, cores)
		}
		topo, perr := parseSpec(s)
		if perr != nil || !strings.Contains(s, "x") {
			return
		}
		if err != nil {
			t.Fatalf("parseSpec(%q) placed images on a shape ParseShape refuses: %v", s, err)
		}
		if topo.NumImages() != nodes*sockets*cores || topo.NumNodes() != nodes {
			t.Fatalf("parseSpec(%q) = %d images on %d nodes, want %dx%dx%d full", s, topo.NumImages(), topo.NumNodes(), nodes, sockets, cores)
		}
	})
}

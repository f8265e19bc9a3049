package main

import (
	"bytes"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"cafteams/internal/core"
)

// TestManifest holds BENCHMARK.json to the tables in metrics.go and to the
// driver's limits on names and counts.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from metrics.go; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("bad metric or workload name %q", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range m.PerLayer {
		check(d.Name, d.Unit)
	}
}

// TestWorkloadsTiny runs every workload at smoke-test shapes, one rep,
// untraced and traced: every declared metric is printed and nothing else,
// and no op fails.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := runWorkload(w, &config{seed: 1, tiny: true, trace: trace})
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w.name, trace, d.name)
				} else if v.Unit != d.unit {
					t.Errorf("%s: %s printed in %q, declared in %q", w.name, d.name, v.Unit, d.unit)
				}
				if !trace && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s trace=%v: attempted %d, failed %d, correct %v: %v",
					w.name, trace, res.Attempted, res.Failed, res.Correct, res.errs)
			}
			if !trace && res.Metrics["verified_frac"].Value != 1 {
				t.Errorf("%s: verified_frac = %v", w.name, res.Metrics["verified_frac"].Value)
			}
		}
	}
}

// TestVerificationCatchesWrongData: with one element of the serial
// reference off by one, every episode of a cell must fail — the check is
// live, not vacuous. (Only the kinds whose reference is not the input itself
// can be corrupted without also changing what the images send.)
func TestVerificationCatchesWrongData(t *testing.T) {
	cfg := &config{seed: 1, tiny: true}
	pure := map[core.Kind]bool{core.KindAllreduce: true, core.KindReduceTo: true,
		core.KindScan: true, core.KindAlltoall: true}
	for _, c := range collSweepCells(cfg) {
		if !pure[c.kind] || c.alg != "2level" || c.shape.label != "8(2)" || c.elems != 16 {
			continue
		}
		pl := newPayload(cfg.seed, c.shape.images, c.elems, c.eps)
		pl.alltoall()
		if r := runCell(c, "sim", cfg.seed, pl, nil, -1); r.failed != 0 {
			t.Errorf("%s: failed %d episodes: %s", c.key(), r.failed, r.err)
		}
		for ep := 0; ep < c.eps; ep++ {
			pl.sum[ep][0]++
			pl.a2aRecv[ep][0]++
			for r := 0; r < c.shape.images; r++ {
				pl.prefix[ep][r*c.elems]++
			}
		}
		if r := runCell(c, "sim", cfg.seed, pl, nil, -1); r.failed != c.eps {
			t.Errorf("%s: %d of %d episodes noticed the corrupted reference", c.key(), r.failed, c.eps)
		}
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	rows := []goldenRow{{"a/b@8(2)/16", []int64{1, 2, 3, 4}}, {"c", []int64{-5, 0, 7, 1 << 40}}}
	back, err := parseGolden(formatGolden("coll-sweep", rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("%d rows back, want %d", len(back), len(rows))
	}
	for i := range rows {
		if back[i].key != rows[i].key || len(back[i].vals) != 4 || back[i].vals[3] != rows[i].vals[3] {
			t.Errorf("row %d: %+v, want %+v", i, back[i], rows[i])
		}
	}
}

// TestCPUShares decodes a real profile of this process.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
		x += inputValue(1, 2, 3, 4, int(x))
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if len(shares) > 0 && (sum < 0.999 || sum > 1.001) {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("a loop in this package got %v of the samples: %v", shares["bench"], shares)
	}
}

// TestCalmRep: a burst that slows one piece of some reps leaves the reported
// rep time alone, and reps cut differently are compared whole.
func TestCalmRep(t *testing.T) {
	rep := func(setup int64, walls ...int64) repOutcome {
		o := repOutcome{SetupNS: setup}
		for _, w := range walls {
			o.Pieces = append(o.Pieces, piece{WallNS: w, SetupNS: setup / int64(len(walls))})
			o.WallNS += w
		}
		return o
	}
	outs := []repOutcome{rep(20, 100, 900), rep(20, 400, 300), rep(20, 100, 300)}
	if wall, setup := calmRep(outs); wall != 400 || setup != 20 {
		t.Errorf("calmRep = %v, %v; want 400, 20", wall, setup)
	}
	outs = append(outs, rep(30, 500))
	if wall, setup := calmRep(outs); wall != 400 || setup != 20 {
		t.Errorf("calmRep of unevenly cut reps = %v, %v; want 400, 20", wall, setup)
	}
}

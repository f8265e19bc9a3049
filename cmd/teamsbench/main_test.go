package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"cafteams/internal/bench"
	"cafteams/internal/core"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	defer func() {
		os.Stdout = old
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// TestAlgSweepList: the `-alg list` path prints every kind with its
// registry names, including the split-phase entries.
func TestAlgSweepList(t *testing.T) {
	out := captureStdout(t, func() {
		if err := runAlgSweep("list", "", 8, 1, false, "sim"); err != nil {
			t.Errorf("alg list: %v", err)
		}
	})
	for _, want := range []string{"barrier", "allreduce", "tdlb", "nb-rd", "nb-2level", "nb-binomial", "nb-ring"} {
		if !strings.Contains(out, want) {
			t.Fatalf("alg list output missing %q:\n%s", want, out)
		}
	}
}

// TestAlgSweepMeasures: a small named sweep renders a table with the
// requested algorithms.
func TestAlgSweepMeasures(t *testing.T) {
	out := captureStdout(t, func() {
		if err := runAlgSweep("allreduce/rd,allreduce/nb-rd,barrier/tdlb", "8(2)", 4, 1, false, "sim"); err != nil {
			t.Errorf("alg sweep: %v", err)
		}
	})
	for _, want := range []string{"allreduce/rd", "allreduce/nb-rd", "barrier/tdlb", "latency/op"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, out)
		}
	}
}

// TestAlgSweepCSV: the CSV path emits a header and one row per
// (spec, comparator).
func TestAlgSweepCSV(t *testing.T) {
	out := captureStdout(t, func() {
		if err := runAlgSweep("bcast/nb-2level", "8(2)", 4, 1, true, "sim"); err != nil {
			t.Errorf("alg csv sweep: %v", err)
		}
	})
	if !strings.Contains(out, "spec,comparator") || !strings.Contains(out, "bcast/nb-2level") {
		t.Fatalf("csv sweep output malformed:\n%s", out)
	}
}

// TestAlgSweepRejectsUnknown pins the error path.
func TestAlgSweepRejectsUnknown(t *testing.T) {
	if err := runAlgSweep("allreduce/no-such-alg", "8(2)", 4, 1, false, "sim"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := runAlgSweep("nokind/rd", "8(2)", 4, 1, false, "sim"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// "auto" and "" are Tuning selection rules, not sweepable algorithms;
	// they used to panic mid-measurement instead of erroring up front.
	if err := runAlgSweep("allreduce/auto", "8(2)", 4, 1, false, "sim"); err == nil {
		t.Fatal("allreduce/auto accepted")
	}
	if err := runAlgSweep("allreduce/", "8(2)", 4, 1, false, "sim"); err == nil {
		t.Fatal("empty algorithm name accepted")
	}
}

// TestExperimentTables smoke-runs the cheapest experiment and the overlap
// table so the e* plumbing is exercised by tier-1.
func TestExperimentTables(t *testing.T) {
	points := func(name string) []bench.Point {
		for _, e := range experiments {
			if e.name == name {
				pts, err := e.points(1)
				if err != nil {
					t.Fatal(err)
				}
				return pts
			}
		}
		t.Fatalf("no experiment %q", name)
		return nil
	}
	pts := points("e1")
	if len(pts) == 0 {
		t.Fatal("e1 produced no points")
	}
	for i, p := range pts {
		if p.Latency <= 0 {
			t.Fatalf("e1 point %+v has non-positive latency", p)
		}
		if want := []string{"TDLB (2-level)", "GASNet RDMA dissemination"}[i%2]; p.Comparator != want {
			t.Fatalf("e1 row %d is %q, want %q", i, p.Comparator, want)
		}
	}
	ov := points("overlap")
	if len(ov) == 0 {
		t.Fatal("overlap produced no points")
	}
	// Each (spec, alg) pair is blocking-then-overlapped; overlapped must
	// never be slower.
	for i := 0; i+1 < len(ov); i += 2 {
		if ov[i+1].Latency >= ov[i].Latency {
			t.Fatalf("overlap table: %q (%d ns) not faster than %q (%d ns)",
				ov[i+1].Comparator, ov[i+1].Latency, ov[i].Comparator, ov[i].Latency)
		}
	}
}

// TestAlgSweepNativeBackend: the -backend=native path runs a small shape on
// real goroutines; the table must render with positive wall-clock timings.
func TestAlgSweepNativeBackend(t *testing.T) {
	out := captureStdout(t, func() {
		if err := runAlgSweep("barrier/tdlb,allreduce/2level", "8(2)", 4, 2, false, "native"); err != nil {
			t.Errorf("native sweep: %v", err)
		}
	})
	for _, want := range []string{"native backend", "barrier/tdlb", "allreduce/2level", "latency/op"} {
		if !strings.Contains(out, want) {
			t.Fatalf("native sweep output missing %q:\n%s", want, out)
		}
	}
	// Wall-clock latencies must be strictly positive in every table cell.
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, " us ") {
			continue
		}
		fields := strings.Fields(line)
		for i, f := range fields {
			if f == "us" && i > 0 {
				var v float64
				if _, err := fmt.Sscanf(fields[i-1], "%f", &v); err != nil || v <= 0 {
					t.Fatalf("non-positive native latency in line %q", line)
				}
			}
		}
	}
}

// TestNativeExperimentPoint: one experiment-style measurement on the native
// backend yields positive wall-clock latency.
func TestNativeExperimentPoint(t *testing.T) {
	cmps := bench.RegistryComparators(core.KindBarrier)
	p, err := bench.Measure("4(2)", "native", cmps[0], 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Latency <= 0 {
		t.Fatalf("native point has non-positive latency: %+v", p)
	}
}

// TestScaleStudyDeterministic: two full -scale sweeps with the same
// arguments are byte-identical — everything in a scale table is modeled
// time or event counts, never wall clock. Tier-1 pins small image counts;
// the 4k shape the README quotes is pinned by TestScaleStudy4kDeterministic.
func TestScaleStudyDeterministic(t *testing.T) {
	run := func() string {
		var buf strings.Builder
		if err := runScaleStudy(&buf, "64,128", "", 4, 1); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("scale study not byte-deterministic:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	for _, want := range []string{"barrier", "allreduce", "tdlb", "2level", "log2(N)"} {
		if !strings.Contains(a, want) {
			t.Fatalf("scale output missing %q:\n%s", want, a)
		}
	}
}

// TestScaleStudyKindFilter: -scale-kinds restricts the sweep to the named
// kinds and rejects unknown names.
func TestScaleStudyKindFilter(t *testing.T) {
	var buf strings.Builder
	if err := runScaleStudy(&buf, "64", "barrier", 1, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "scale study: barrier") {
		t.Fatalf("filtered output missing barrier table:\n%s", out)
	}
	if strings.Contains(out, "allreduce") {
		t.Fatalf("filter leaked other kinds:\n%s", out)
	}
	buf.Reset()
	if err := runScaleStudy(&buf, "64", "nokind", 1, 1); err == nil {
		t.Fatal("unknown -scale-kinds accepted")
	}
}

// TestParseScaleKinds: the -scale-kinds list names kinds of the study
// (bench.ScaleKindAlgs); an entry that is not one is refused by name — a kind
// the registry has but the study does not included — with the study's kinds in
// the message, and nothing is measured for the good entries beside it.
func TestParseScaleKinds(t *testing.T) {
	for _, c := range []struct {
		kinds   string
		want    []string // the set, sorted
		badKind string   // non-empty: refused, naming this entry
	}{
		{kinds: "", want: nil},
		{kinds: "barrier", want: []string{"barrier"}},
		{kinds: " scan , allreduce,", want: []string{"allreduce", "scan"}},
		{kinds: "barrier,allreduce,reduceto,bcast,scan", want: []string{"allreduce", "barrier", "bcast", "reduceto", "scan"}},
		{kinds: "nokind", badKind: "nokind"},
		{kinds: "allgather,scan", badKind: "allgather"},
		{kinds: "scan,Barrier", badKind: "Barrier"},
	} {
		got, err := parseScaleKinds(c.kinds)
		if c.badKind != "" {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown kind %q", c.badKind)) ||
				!strings.Contains(err.Error(), "known: barrier, allreduce, reduceto, bcast, scan") {
				t.Errorf("-scale-kinds %q: error %v, want one naming %q and the study's kinds", c.kinds, err, c.badKind)
			}
			var buf strings.Builder
			if err := runScaleStudy(&buf, "64", c.kinds, 1, 1); err == nil || buf.Len() > 0 {
				t.Errorf("-scale-kinds %q: the study ran (error %v, %d bytes printed)", c.kinds, err, buf.Len())
			}
			continue
		}
		if err != nil {
			t.Errorf("-scale-kinds %q: %v", c.kinds, err)
		}
		if keys := slices.Sorted(maps.Keys(got)); !slices.Equal(keys, c.want) {
			t.Errorf("-scale-kinds %q = %v, want %v", c.kinds, keys, c.want)
		}
	}
}

// TestScaleStudy4kDeterministic: the acceptance-scale run — the full
// 4096-image sweep across every kind — completes and is byte-deterministic.
// Costs ~15s per run, so it is skipped under -short.
func TestScaleStudy4kDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("4k scale sweep skipped under -short")
	}
	run := func() string {
		var buf strings.Builder
		if err := runScaleStudy(&buf, "4096", "", 8, 2); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("4k scale study not byte-deterministic across runs")
	}
	if !strings.Contains(a, "4096") || !strings.Contains(a, "  512") {
		t.Fatalf("4k scale output missing expected shape:\n%s", a)
	}
}

// TestBadFlags: values that used to panic (-iters 0, -elems -1), print NaN
// rows (-scale-iters 0) or silently select nothing (-exp e9) are rejected
// before anything is measured, naming the flag.
func TestBadFlags(t *testing.T) {
	if err := checkFlags("all", 10, 128, 8, 2); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, c := range []struct {
		exp                                  string
		iters, elems, scaleElems, scaleIters int
		want                                 string
	}{
		{"all", 0, 128, 8, 2, "-iters"},
		{"all", 10, -1, 8, 2, "-elems"},
		{"all", 10, 128, 0, 2, "-scale-elems"},
		{"all", 10, 128, 8, 0, "-scale-iters"},
		{"e9", 10, 128, 8, 2, "e1, e2, e3, e4, e6, e7 or all"},
	} {
		err := checkFlags(c.exp, c.iters, c.elems, c.scaleElems, c.scaleIters)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("checkFlags(%q, %d, %d, %d, %d) = %v, want an error naming %q",
				c.exp, c.iters, c.elems, c.scaleElems, c.scaleIters, err, c.want)
		}
	}
	// A placement list with nothing in it measures nothing: refused, not a
	// title over an empty table or a geomean over 0 cells.
	for _, c := range []struct {
		flags string
		err   error
	}{
		{`-alg allgather -algspecs ""`, runAlgSweep("allgather", "", 128, 1, false, "sim")},
		{`-exp regret -algspecs " , "`, runRegret(io.Discard, " , ", []int{128})},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), "-algspecs") {
			t.Errorf("%s = %v, want an error naming -algspecs", c.flags, c.err)
		}
	}
}

// TestRegretReport: `-exp regret` prints, per cell, the pick, the best
// algorithm, the regret and the table row that matched, then the summary; a
// regret below 1 would mean the best was not among the algorithms swept.
func TestRegretReport(t *testing.T) {
	if err := checkFlags("regret", 10, 128, 8, 2); err != nil {
		t.Fatalf("-exp regret rejected: %v", err)
	}
	var out strings.Builder
	if err := runRegret(&out, "8(2), 4(4)", []int{16, 512}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Header, 2 barrier cells, 8 kinds x 2 sizes x 2 placements less the
	// second placement's large allgather and alltoall, a blank, the summary.
	if want := 1 + 2 + 8*2*2 - 2 + 2; len(lines) != want {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), want, out.String())
	}
	for _, want := range []string{"auto picks", "table row", "per node", "geomean regret 1."} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestGenerateAutoTableNeedsOut: the generator writes a file of the package it
// is built from, so it wants to be told which.
func TestGenerateAutoTableNeedsOut(t *testing.T) {
	if err := checkFlags("autotable", 10, 128, 8, 2); err != nil {
		t.Fatalf("-exp autotable rejected: %v", err)
	}
	if err := generateAutoTable(""); err == nil || !strings.Contains(err.Error(), "-out") {
		t.Errorf("generateAutoTable(\"\") = %v, want an error naming -out", err)
	}
}

package main

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func testOptions() options {
	return options{
		seed:      1,
		jobs:      12,
		machine:   "4x2x2",
		meanGapUS: 40,
		policies:  "packed,spread,kchoices,quota",
		k:         3,
		quota:     2,
		ideal:     true,
	}
}

// TestSmoke runs the full policy comparison on a small machine and checks
// the headline sections all rendered and every job finished under every
// policy.
func TestSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := runSim(testOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"== placements: packed ==",
		"== placements: spread ==",
		"== placements: kchoices(3) ==",
		"== placements: packed+quota(2) ==",
		"== policy comparison ==",
		"== collective latency under contention (us/op) ==",
		"allreduce",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "UNPLACED") {
		t.Errorf("jobs were left unplaced:\n%s", out)
	}
	pens := allreducePenalties(t, out)
	if len(pens) != 4 {
		t.Fatalf("%d allreduce rows in the collective table, want one per policy:\n%s", len(pens), out)
	}
	for _, p := range pens {
		if p < 1 {
			t.Errorf("allreduce penalty %v < 1 (shared faster than ideal?)", p)
		}
	}
}

// allreducePenalties reads the penalty column of the allreduce rows of the
// collective table (kind, policy, shared, ideal, penalty), one per policy.
func allreducePenalties(t *testing.T, out string) []float64 {
	t.Helper()
	var pens []float64
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[0] == "allreduce" {
			p, err := strconv.ParseFloat(strings.TrimSuffix(f[4], "x"), 64)
			if err != nil {
				t.Fatalf("penalty column of %q: %v", line, err)
			}
			pens = append(pens, p)
		}
	}
	return pens
}

// TestSeededDeterminism is the acceptance check: the same -seed must yield
// byte-identical placement and metrics tables, and a different seed must
// not.
func TestSeededDeterminism(t *testing.T) {
	run := func(seed int64) string {
		o := testOptions()
		o.seed = seed
		var buf bytes.Buffer
		if err := runSim(o, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(1), run(1)
	if a != b {
		t.Fatalf("same seed produced different output:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if a == run(2) {
		t.Fatal("different seeds produced identical output")
	}
}

func faultOptions() options {
	o := testOptions()
	o.faults = 2
	o.faultSpanUS = 300
	o.faultMTTRUS = 150
	o.retryMax = 3
	o.retryBaseUS = 20
	o.retryCapUS = 160
	return o
}

// TestFaultSmoke runs the -faults scenario: the fault timeline and goodput
// tables render, every policy's scheduler drains without deadlock, and no
// job is lost (completed + gave-up = submitted).
func TestFaultSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := runSim(faultOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"== fault scenario: 2 node crash(es)",
		"crashes, repaired after",
		"== goodput under faults ==",
		"== per-job retries ==",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "UNPLACED") {
		t.Errorf("jobs were left unplaced (scheduler wedged?):\n%s", out)
	}
}

// TestFaultDeterminism: the same seed must yield a byte-identical fault
// timeline and goodput/retry/MTTR tables; a different seed must not.
func TestFaultDeterminism(t *testing.T) {
	run := func(seed int64) string {
		o := faultOptions()
		o.seed = seed
		var buf bytes.Buffer
		if err := runSim(o, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(1), run(1)
	if a != b {
		t.Fatalf("same seed produced different fault-mode output:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if a == run(2) {
		t.Fatal("different seeds produced identical fault-mode output")
	}
}

// TestContentionMeasurable pins the demo's point: on the saturating default
// configuration at least one policy's allreduce runs measurably slower
// shared than ideal.
func TestContentionMeasurable(t *testing.T) {
	if testing.Short() {
		t.Skip("full default-config run")
	}
	o := testOptions()
	o.jobs = 40
	o.machine = "8x2x4"
	var buf bytes.Buffer
	if err := runSim(o, &buf); err != nil {
		t.Fatal(err)
	}
	if best := slices.Max(allreducePenalties(t, buf.String())); best < 1.05 {
		t.Fatalf("no policy shows a measurable allreduce contention penalty (best %vx)", best)
	}
}

// TestBadFlags: values that used to panic inside the simulation (-fault-span-us
// 0, -quota 0, -jobs -3) or were silently reinterpreted (-k 0, negative repair
// and retry times) are refused before anything is simulated, naming the flag;
// so are a machine shape and a policy nothing can run.
func TestBadFlags(t *testing.T) {
	if err := checkFlags(faultOptions()); err != nil {
		t.Fatalf("good flags rejected: %v", err)
	}
	for _, c := range []struct {
		flag string
		set  func(o *options)
	}{
		{"-jobs", func(o *options) { o.jobs = -3 }},
		{"-mean-gap-us", func(o *options) { o.meanGapUS = 0 }},
		{"-k", func(o *options) { o.k = 0 }},
		{"-quota", func(o *options) { o.quota = 0 }},
		{"-faults", func(o *options) { o.faults = -1 }},
		{"-fault-span-us", func(o *options) { o.faultSpanUS = 0 }},
		{"-fault-mttr-us", func(o *options) { o.faultMTTRUS = -1 }},
		{"-retry-max", func(o *options) { o.retryMax = -1 }},
		{"-retry-base-us", func(o *options) { o.retryBaseUS = -20 }},
		{"-retry-cap-us", func(o *options) { o.retryCapUS = -160 }},
	} {
		o := faultOptions()
		c.set(&o)
		if err := checkFlags(o); err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("checkFlags with a bad %s = %v, want an error naming it", c.flag, err)
		}
	}
	o := testOptions()
	o.machine = "0x2"
	if err := runSim(o, nil); err == nil {
		t.Fatal("machine shape 0x2 accepted")
	}
	o = testOptions()
	o.policies = "packed,magic"
	var buf bytes.Buffer
	if err := runSim(o, &buf); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("unknown policy error = %v", err)
	}
}

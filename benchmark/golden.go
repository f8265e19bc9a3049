package main

import (
	"embed"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// The golden tables pin every deterministic number the sim workloads
// produce: each cell's modeled ns, intra/inter message counts and event
// count, each application run's, and each cluster replay's makespan and
// per-kind collective latencies. On the sim backend these are pure functions
// of the workload (cluster-stream: of workload and seed, and its table holds
// seed 1), so any difference is a behaviour change: -check reports it (exit
// status 1), -rebaseline rewrites the tables and prints the diff, to be
// committed with a stated reason.

//go:embed golden/*.tsv
var goldenFS embed.FS

const goldenSeed = 1

// goldenRow is one line of a golden table: a key and its integer columns.
type goldenRow struct {
	key  string
	vals []int64
}

// goldenColumns names each workload's columns (the table's header line).
var goldenColumns = map[string][]string{
	"coll-sweep":     {"modeled_ns", "intra_msgs", "inter_msgs", "events"},
	"scale-4k":       {"modeled_ns", "intra_msgs", "inter_msgs", "events"},
	"apps-caf":       {"modeled_ns", "intra_msgs", "inter_msgs", "ops"},
	"cluster-stream": {"v1", "v2", "v3", "v4"},
}

func cellRows(cells []cellResult) []goldenRow {
	rows := make([]goldenRow, 0, len(cells))
	for i := range cells {
		r := &cells[i]
		rows = append(rows, goldenRow{r.c.key(), []int64{r.clockNS, r.intra, r.inter, r.events}})
	}
	return rows
}

func formatGolden(workload string, rows []goldenRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "key\t%s\n", strings.Join(goldenColumns[workload], "\t"))
	for _, r := range rows {
		b.WriteString(r.key)
		for _, v := range r.vals {
			fmt.Fprintf(&b, "\t%d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func parseGolden(data string) ([]goldenRow, error) {
	var rows []goldenRow
	for i, line := range strings.Split(strings.TrimSpace(data), "\n") {
		if i == 0 || line == "" {
			continue // header
		}
		f := strings.Split(line, "\t")
		row := goldenRow{key: f[0]}
		for _, s := range f[1:] {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("golden line %d: %v", i+1, err)
			}
			row.vals = append(row.vals, v)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// goldenDrift compares rows against the workload's checked-in table and
// describes every row that differs, is missing or is new. The tables hold
// full-size runs, and cluster-stream's only seed 1 (its job order is
// seeded); a run with nothing to compare against reports no drift.
func goldenDrift(cfg *config, workload string, rows []goldenRow) []string {
	if cfg.tiny || (workload == "cluster-stream" && cfg.seed != goldenSeed) {
		return nil
	}
	data, err := goldenFS.ReadFile("golden/" + workload + ".tsv")
	if err != nil {
		return []string{workload + ": no golden table checked in"}
	}
	want, err := parseGolden(string(data))
	if err != nil {
		return []string{workload + ": " + err.Error()}
	}
	cols := goldenColumns[workload]
	old := map[string][]int64{}
	for _, r := range want {
		old[r.key] = r.vals
	}
	var drift []string
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.key] = true
		w, ok := old[r.key]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: new row %v", r.key, r.vals))
			continue
		}
		var diffs []string
		for i, v := range r.vals {
			if i >= len(w) || w[i] != v {
				was := "-"
				if i < len(w) {
					was = fmt.Sprint(w[i])
				}
				diffs = append(diffs, fmt.Sprintf("%s %s -> %d", cols[i], was, v))
			}
		}
		if len(diffs) > 0 {
			drift = append(drift, r.key+": "+strings.Join(diffs, ", "))
		}
	}
	for _, r := range want {
		if !seen[r.key] {
			drift = append(drift, r.key+": row no longer produced")
		}
	}
	return drift
}

// checkGolden runs one pass of every sim workload at the golden seed and
// compares it with the checked-in tables; with rewrite it replaces them.
// It returns the number of drifted rows.
func checkGolden(rewrite bool) (int, error) {
	total := 0
	for _, w := range workloads {
		if w.golden == nil {
			continue
		}
		cfg := &config{seed: goldenSeed, pls: &payloads{seed: goldenSeed}}
		p := w.prepare(cfg)(nil, -1)
		if p.failed > 0 {
			return total, fmt.Errorf("%s: %d of %d ops failed: %s", w.name, p.failed, p.ops, strings.Join(p.errs, "; "))
		}
		rows := w.golden(p)
		drift := goldenDrift(cfg, w.name, rows)
		total += len(drift)
		fmt.Printf("%-16s %4d rows, %d drifted\n", w.name, len(rows), len(drift))
		for _, d := range drift {
			fmt.Printf("  %s\n", d)
		}
		if rewrite {
			path := benchDir() + "/golden/" + w.name + ".tsv"
			if err := os.WriteFile(path, []byte(formatGolden(w.name, rows)), 0o644); err != nil {
				return total, err
			}
			fmt.Printf("  wrote %s\n", path)
		}
	}
	return total, nil
}

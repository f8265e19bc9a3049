// Command benchmark is the repository's one benchmark: five workloads,
// eleven end-to-end metrics, and per-layer metrics measured from outside the
// layers. See README.md in this directory for every metric's definition and
// which layer should move which number on which workload.
//
//	go run . -workload coll-sweep            one untraced run: end-to-end metrics
//	go run . -workload coll-sweep -trace 1   one traced run: per-layer metrics, spans, CPU shares
//	go run . -all                            every workload, untraced then traced
//	go run . -check | -rebaseline            compare with / rewrite the golden tables
//	go run . -selfcheck                      two full sets of runs against the bounds
//
// (from this directory; from the repository root, `bash benchmark/run.sh`
// with the same arguments). Each workload runs in its own process, so
// peak_rss_mb and setup_s are per workload. The last line of a single
// workload run is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

const defaultSeconds = 25

func main() {
	var (
		name       = flag.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", "))
		seed       = flag.Int64("seed", 1, "seed of payload values and of the cluster job order, k-choices and crash streams; never changes shapes, sizes or the job mix")
		seconds    = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace      = flag.Int("trace", 0, "1: traced run (spans, CPU profile, layer probes) reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		all        = flag.Bool("all", false, "run every workload, untraced then traced, one child process each")
		check      = flag.Bool("check", false, "compare the deterministic tables at seed 1 with golden/*.tsv; exit 1 on drift")
		rebaseline = flag.Bool("rebaseline", false, "rewrite golden/*.tsv, printing the diff")
		selfcheck  = flag.Bool("selfcheck", false, "run the untraced set twice and hold the differences to the bounds; exit 1 if any exceeds its bound")
		tiny       = flag.Bool("tiny", false, "smoke-test shapes, one rep")
		verbose    = flag.Bool("v", false, "with -workload: one line per cell on standard error")
		manifestF  = flag.Bool("manifest", false, "print BENCHMARK.json as metrics.go defines it")
		repChildF  = flag.Bool("rep-child", false, "internal: run one cold rep of -workload and print its outcome as JSON")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}
	switch {
	case *manifestF:
		b, err := manifestJSON()
		if err != nil {
			fatal(1, "%v", err)
		}
		os.Stdout.Write(b)
	case *check || *rebaseline:
		drifted, err := checkGolden(*rebaseline)
		if err != nil {
			fatal(1, "%v", err)
		}
		if drifted > 0 && !*rebaseline {
			fatal(1, "%d golden rows drifted; if the change is intended, run -rebaseline and commit the tables with the reason", drifted)
		}
	case *selfcheck:
		os.Exit(selfCheck(*seed, *seconds))
	case *all:
		os.Exit(runAll(*seed, *seconds))
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatal(2, "unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
		}
		// A hung native world cannot be detected from inside; never outlive
		// the driver's patience.
		time.AfterFunc(170*time.Second, func() { fatal(3, "workload %s still running after 170 s", w.name) })
		cfg := &config{seed: *seed, seconds: *seconds, trace: *trace != 0, tiny: *tiny, verbose: *verbose}
		if *repChildF {
			if err := repChild(w, cfg); err != nil {
				fatal(1, "%v", err)
			}
			return
		}
		res := runWorkload(w, cfg)
		fmt.Print(res.text(w, cfg))
		line, err := json.Marshal(res)
		if err != nil {
			fatal(1, "%v", err)
		}
		fmt.Printf("%s\n", line)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout that is not a repository records none).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision" && len(s.Value) >= 12:
				rev = s.Value[:12]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// child runs one workload in its own process (a re-exec of this binary) and
// returns its parsed result, echoing its report.
func child(name string, seed int64, seconds float64, trace int, echo bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	text := strings.TrimRight(out.String(), "\n")
	i := strings.LastIndexByte(text, '\n')
	if echo {
		fmt.Println(text[:max(i, 0)])
	}
	res := &result{}
	if err := json.Unmarshal([]byte(text[i+1:]), res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	return res, nil
}

// runAll runs every workload, one child process at a time, untraced then
// traced.
func runAll(seed int64, seconds float64) int {
	fmt.Printf("benchmark -all  nproc %d  %s  commit %s\n\n", runtime.NumCPU(), runtime.Version(), commit())
	status := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(w.name, seed, seconds, trace, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				status = 1
			} else if !res.Correct {
				status = 1
			}
			fmt.Println()
		}
	}
	return status
}

// selfCheck runs the untraced set twice and prints, per end-to-end metric
// and workload, both values, their relative difference in the direction
// that counts as worse, and the bound. A difference beyond the bound means
// that workload's run is too short to resolve the bound: lengthen the run,
// do not widen the bound.
func selfCheck(seed int64, seconds float64) int {
	fmt.Printf("benchmark -selfcheck  seed %d  seconds %g  nproc %d  %s  commit %s\n",
		seed, seconds, runtime.NumCPU(), runtime.Version(), commit())
	fmt.Printf("%-16s %-20s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "diff %", "bound %")
	status := 0
	for _, w := range workloads {
		var runs [2]*result
		for i := range runs {
			res, err := child(w.name, seed, seconds, 0, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				fmt.Printf("%-16s run %d: %d of %d ops failed\n", w.name, i+1, res.Failed, res.Attempted)
				status = 1
			}
			runs[i] = res
		}
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.name].Value, runs[1].Metrics[d.name].Value
			diff := 0.0
			if a != 0 {
				diff = 100 * (b - a) / a
			}
			mark := ""
			if diff > 100*d.bound || -diff > 100*d.bound {
				mark = "  EXCEEDS BOUND"
				status = 1
			}
			fmt.Printf("%-16s %-20s %14.6g %14.6g %+9.3f %7.1f%s\n", w.name, d.name, a, b, diff, 100*d.bound, mark)
		}
	}
	return status
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is what one workload run is given.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool // smoke-test shapes, one rep
	verbose bool // one stderr line per cell
	pls     *payloads
}

// pass is what one rep — one complete pass over a workload's fixed cell
// list, in fresh worlds — did and measured.
type pass struct {
	ops, failed int
	setupNS     int64 // host ns constructing worlds, summed over the rep's worlds
	runNS       int64 // host ns driving them
	eventRunNS  int64 // the part of runNS spent in worlds whose events are counted
	events      int64
	intra       int64
	inter       int64
	interBytes  int64
	placeNS     int64 // cluster-stream: host ns inside Policy.Place
	placed      int64
	cells       []cellResult
	extra       any // workload-specific results
	errs        []string

	// pieces cuts the rep's host time at fixed points (after a world, a
	// replay, a batch of ideal re-runs): see calmRep.
	pieces []piece
	last   time.Time // when the last piece ended
	marked int64     // setupNS when it did
}

// piece is one stretch of a rep: its host time and the set-up time within it.
type piece struct{ WallNS, SetupNS int64 }

func newPass() *pass { return &pass{last: time.Now()} }

// mark ends a piece: the host time since the last mark (or the pass's start)
// and the set-up time the pass gained since.
func (p *pass) mark() {
	now := time.Now()
	p.pieces = append(p.pieces, piece{now.Sub(p.last).Nanoseconds(), p.setupNS - p.marked})
	p.last, p.marked = now, p.setupNS
}

// workload is one of the benchmark's five.
type workload struct {
	name string
	why  string
	// prepare builds the seeded inputs (untimed) and returns the rep
	// function. The rep function records spans under repSpan when tr is
	// non-nil.
	prepare func(cfg *config) func(tr *tracer, repSpan int) *pass
	// metrics derives the deterministic end-to-end and per-layer metrics
	// from one pass (any pass: they are pure functions of workload and
	// seed), and the traced-pass ones from tr when it is non-nil.
	metrics func(cfg *config, p *pass, tr *tracer, m metricSet)
	// probes runs the layer probes that ride along with this workload's
	// traced run.
	probes func(cfg *config, m metricSet)
	// golden lists the pass's deterministic rows for the golden table; nil
	// for the native workload, whose clock is the wall.
	golden func(p *pass) []goldenRow
	// isolate runs every rep in a fresh child process, with no warm-up: for
	// a workload whose cost is building worlds so large that a second one
	// in the same process no longer behaves like the first (see scale-4k).
	isolate bool
}

var workloads = []*workload{collSweep, scale4k, appsCAF, nativeSweep, clusterStreamW}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// result is one run's outcome: the JSON object the last stdout line carries.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`

	errs []string
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repOutcome is everything one rep reports, whether it ran in this process
// or, for a workload with isolated reps, in a child that printed it as JSON.
type repOutcome struct {
	Ops, Failed                        int
	Errs                               []string
	WallNS, SetupNS, RunNS, EventRunNS int64
	Events, Intra, Inter, InterBytes   int64
	Mallocs, AllocBytes                uint64  // heap objects and bytes allocated during the rep
	UserS, SysS                        float64 // CPU seconds during the rep
	GCFrac                             float64 // runtime.MemStats.GCCPUFraction when the rep ended
	RSSMB                              float64 // peak resident set during the rep (VmHWM, reset when it began)
	Pieces                             []piece // the rep's host time cut at the workload's marks
	Metrics                            metricSet
	CPU                                map[string]float64 // traced reps: cpu_share by layer
}

// runner runs the reps of one workload run.
type runner struct {
	w   *workload
	cfg *config
	rep func(tr *tracer, repSpan int) *pass
	res *result
}

// benchGCPercent is the GOGC setting every benchmark process runs with. At
// the default of 100 the heap may grow to twice the live heap between
// collections, and where in that range a run's peak falls is luck: the same
// cluster-stream rep peaked anywhere from 550 to 830 MB. At 25 the peak stays
// within a quarter of the live heap (500 to 527 MB), so peak_rss_mb can
// resolve a 5 % change, for about 8 % more host time spent collecting.
const benchGCPercent = 25

// setRuntime fixes the Go runtime settings of a benchmark process. It runs
// on one P unless the GOMAXPROCS environment variable says otherwise. The
// simulator runs one image at a time, so a second P adds no parallelism, only
// a cross-thread wake-up at every hand-off: on the 2-core VM this was built on
// a cluster-stream rep takes 10.7 s (4 s of it in futex calls) on two Ps and
// 6.7 s on one, and how long a wake-up takes is the host scheduler's business,
// not the program's. The same holds for native-sweep on two shared cores
// (66-85 k ops/s on two Ps, 97-111 k on one).
func setRuntime() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	debug.SetGCPercent(benchGCPercent)
}

// local runs one rep in this process.
func (rn *runner) local(tr *tracer) repOutcome {
	if tr != nil {
		tr.rep++
	}
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	// Every rep starts from a collected heap whose free pages went back to
	// the operating system, and with the resident-set high-water mark
	// reset: reps do not inherit each other's heap growth, and a rep's peak
	// is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	start := time.Now()
	id := tr.open("rep", clockHost, "driver", -1, tr.hostNow())
	p := rn.rep(tr, id)
	tr.end(id, tr.hostNow())
	wall := time.Since(start)
	p.mark() // whatever followed the workload's last mark
	runtime.ReadMemStats(&ms1)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)

	o := repOutcome{Ops: p.ops, Failed: p.failed, Errs: p.errs,
		WallNS: wall.Nanoseconds(), SetupNS: p.setupNS, RunNS: p.runNS, EventRunNS: p.eventRunNS,
		Events: p.events, Intra: p.intra, Inter: p.inter, InterBytes: p.interBytes,
		Mallocs: ms1.Mallocs - ms0.Mallocs, AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		UserS: tvSec(ru1.Utime) - tvSec(ru0.Utime), SysS: tvSec(ru1.Stime) - tvSec(ru0.Stime),
		GCFrac: ms1.GCCPUFraction, RSSMB: peakRSSMB(), Pieces: p.pieces, Metrics: metricSet{}}
	rn.w.metrics(rn.cfg, p, tr, o.Metrics)
	if tr != nil && rn.w.golden != nil {
		o.Metrics["core.cells_drifted"] = float64(len(goldenDrift(rn.cfg, rn.w.name, rn.w.golden(p))))
	}
	return o
}

// isolated runs one rep in a fresh child process (see workload.isolate).
func (rn *runner) isolated(traced bool) repOutcome {
	var o repOutcome
	exe, err := os.Executable()
	if err == nil {
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(exe, "-workload", rn.w.name, "-seed", fmt.Sprint(rn.cfg.seed), "-trace", trace, "-rep-child")
		cmd.Stderr = os.Stderr
		var out []byte
		if out, err = cmd.Output(); err == nil {
			err = json.Unmarshal(out, &o)
		}
	}
	if err != nil {
		return repOutcome{Ops: 1, Failed: 1, Errs: []string{"isolated rep: " + err.Error()}, WallNS: 1, Metrics: metricSet{}}
	}
	return o
}

// repChild is the child side of an isolated rep: one cold pass, traced or
// not, reported as one JSON object on standard output.
func repChild(w *workload, cfg *config) error {
	setRuntime()
	cfg.pls = &payloads{seed: cfg.seed}
	rn := &runner{w: w, cfg: cfg, rep: w.prepare(cfg)}
	var o repOutcome
	if cfg.trace {
		tr := newTracer()
		o = rn.profiled(func() repOutcome { return rn.local(tr) })
		if err := tr.write(tracePath(w)); err != nil {
			o.Errs = append(o.Errs, "trace: "+err.Error())
		}
	} else {
		o = rn.local(nil)
	}
	return json.NewEncoder(os.Stdout).Encode(o)
}

// profiled runs reps under a CPU profile and folds it into the last
// outcome's cpu_share.
func (rn *runner) profiled(reps func() repOutcome) repOutcome {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		o := reps()
		o.Errs = append(o.Errs, "cpu profile: "+err.Error())
		return o
	}
	o := reps()
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		o.Errs = append(o.Errs, "cpu profile: "+err.Error())
	}
	o.CPU = shares
	return o
}

// phase runs reps until budget is spent (one rep in tiny mode) and returns
// their outcomes, the last one carrying the phase's cpu_share when traced.
func (rn *runner) phase(budget time.Duration, traced bool) []repOutcome {
	var outs []repOutcome
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	isolate := rn.w.isolate && !rn.cfg.tiny
	loop := func() repOutcome {
		for start := time.Now(); ; {
			var o repOutcome
			if isolate {
				o = rn.isolated(traced)
			} else {
				o = rn.local(tr)
			}
			rn.note(o)
			outs = append(outs, o)
			if rn.cfg.verbose {
				fmt.Fprintf(os.Stderr, "rep %d: %.1f ms wall, %.1f ms set-up, user %.2f s, sys %.2f s, rss %.0f MB\n",
					len(outs), float64(o.WallNS)/1e6, float64(o.SetupNS)/1e6, o.UserS, o.SysS, o.RSSMB)
			}
			// Stop when the next rep would end further from the budget
			// than this one did.
			if rn.cfg.tiny || time.Since(start)+time.Duration(o.WallNS/2) >= budget {
				return o
			}
		}
	}
	if !traced || isolate {
		loop() // an isolated rep profiles and writes its trace in the child
		return outs
	}
	o := rn.profiled(loop)
	outs[len(outs)-1] = o
	if !rn.cfg.tiny {
		if err := tr.write(tracePath(rn.w)); err != nil {
			rn.res.errs = append(rn.res.errs, "trace: "+err.Error())
		}
	}
	return outs
}

func (rn *runner) note(o repOutcome) {
	rn.res.Attempted += o.Ops
	rn.res.Failed += o.Failed
	rn.res.errs = append(rn.res.errs, o.Errs...)
}

func tracePath(w *workload) string { return benchDir() + "/out/trace-" + w.name + ".json" }

// runWorkload is one run: timed reps for cfg.seconds, after the seeded inputs
// are built. There is no warm-up rep: every rep starts from a collected heap
// whose pages were returned to the operating system (see local), so every
// rep is as cold as the first and none is special. An untraced run reports
// the end-to-end metrics. A traced run splits its time between untraced and
// traced reps (spans, CPU profile), runs the workload's layer probes, and
// reports the per-layer metrics; end-to-end metrics never come from it.
func runWorkload(w *workload, cfg *config) *result {
	setRuntime()
	cfg.pls = &payloads{seed: cfg.seed}
	res := &result{Metrics: map[string]metricJSON{}}
	rn := &runner{w: w, cfg: cfg, rep: w.prepare(cfg), res: res}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	plain := rn.phase(budget, false)
	last := plain[len(plain)-1]
	var wallMS, rssMB []float64
	var sum repOutcome
	for _, o := range plain {
		wallMS = append(wallMS, float64(o.WallNS)/1e6)
		rssMB = append(rssMB, o.RSSMB)
		sum.Mallocs += o.Mallocs
		sum.AllocBytes += o.AllocBytes
		sum.UserS += o.UserS
		sum.SysS += o.SysS
	}
	ops := float64(last.Ops)

	if !cfg.trace {
		m := last.Metrics
		repNS, setupNS := calmRep(plain)
		m["setup_s"] = setupNS / 1e9
		m["host_ops_per_s"] = ops / (repNS / 1e9)
		m["peak_rss_mb"] = median(rssMB)
		m["verified_frac"] = 1 - float64(res.Failed)/float64(max(res.Attempted, 1))
		res.finish(m, endToEnd, notApplicable)
		return res
	}

	traced := rn.phase(budget, true)
	lastTraced := traced[len(traced)-1]
	m := lastTraced.Metrics
	for layer, share := range lastTraced.CPU {
		m["cpu_share."+layer] = share
	}
	if w.probes != nil {
		w.probes(cfg, m)
	}
	nReps := float64(len(plain))
	m["sim.events"] = float64(last.Events)
	if last.Events > 0 {
		m["sim.ns_per_event"] = float64(last.EventRunNS) / float64(last.Events)
	}
	m["pgas.msgs_intra_per_op"] = float64(last.Intra) / ops
	m["pgas.msgs_inter_per_op"] = float64(last.Inter) / ops
	m["pgas.bytes_inter_per_op"] = float64(last.InterBytes) / ops
	m["go.allocs_per_op"] = float64(sum.Mallocs) / (nReps * ops)
	m["go.alloc_bytes_per_op"] = float64(sum.AllocBytes) / (nReps * ops)
	m["go.gc_cpu_frac"] = last.GCFrac
	if sum.UserS+sum.SysS > 0 {
		m["go.sys_cpu_frac"] = sum.SysS / (sum.UserS + sum.SysS)
	}
	var tracedMS []float64
	for _, o := range traced {
		tracedMS = append(tracedMS, float64(o.WallNS)/1e6)
	}
	repMS := median(wallMS)
	m["driver.rep_ms_p50"] = repMS
	m["driver.rep_ms_tail"] = tail(wallMS)
	m["driver.rep_n"] = nReps
	m["driver.trace_overhead_pct"] = 100 * (median(tracedMS) - repMS) / repMS
	res.finish(m, perLayer, 0)
	return res
}

// calmRep is the host time and the set-up time of one rep as an untraced run
// reports them: piece by piece (see pass.mark) the fastest tenth over the
// run's reps — the value a tenth of the way up the sorted times, which is the
// fastest while there are ten reps or fewer — summed. What the host adds to a
// rep only ever adds, and it comes in bursts: a fixed loop that takes 54 ms
// when the VM is calm takes 70 to 90 ms for a second or two several times a
// minute, and for most of some minutes. A burst spoils some pieces of some
// reps, and a piece's fastest tenth is free of it as long as a tenth of the
// reps ran that piece in calm; the median of whole reps carries a share of
// every burst, and when more than half of a run is disturbed, all of it (ten
// runs of native-sweep beside a process that keeps both cores busy two
// seconds in three: medians of whole reps spread 26 %, this 6 %). Reps cut
// into different pieces (one failed half-way) are compared whole.
func calmRep(outs []repOutcome) (wallNS, setupNS float64) {
	n := len(outs[0].Pieces)
	for _, o := range outs {
		if len(o.Pieces) != n {
			n = 0
		}
	}
	if n == 0 {
		return fastestTenth(outs, func(o *repOutcome) int64 { return o.WallNS }),
			fastestTenth(outs, func(o *repOutcome) int64 { return o.SetupNS })
	}
	for i := 0; i < n; i++ {
		wallNS += fastestTenth(outs, func(o *repOutcome) int64 { return o.Pieces[i].WallNS })
		setupNS += fastestTenth(outs, func(o *repOutcome) int64 { return o.Pieces[i].SetupNS })
	}
	return wallNS, setupNS
}

func fastestTenth(outs []repOutcome, f func(*repOutcome) int64) float64 {
	xs := make([]int64, len(outs))
	for i := range outs {
		xs[i] = f(&outs[i])
	}
	slices.Sort(xs)
	return float64(xs[(len(xs)-1)/10])
}

// finish fills the result's metrics from m (every name of defs, absent ones
// reading fill) and settles correctness.
func (r *result) finish(m metricSet, defs []metricDef, fill float64) {
	for name, v := range m.complete(defs, fill) {
		r.Metrics[name] = metricJSON{Value: v, Unit: unitOf(name)}
	}
	for name := range m {
		if unitOf(name) == "" {
			r.errs = append(r.errs, "metric "+name+" is not declared in metrics.go")
		}
	}
	r.Correct = r.Failed == 0 && len(r.errs) == 0
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// resetPeakRSS resets the kernel's resident-set high-water mark of this
// process (Linux: "5" to clear_refs). Where that is not permitted the mark
// keeps rising and every rep reports the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// benchDir is the benchmark's own directory relative to the working
// directory: the benchmark is run either from the repository root or from
// inside benchmark/.
func benchDir() string {
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		return "benchmark"
	}
	return "."
}

func (r *result) text(w *workload, cfg *config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s  seed %d  trace %v  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		w.name, cfg.seed, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	defs, title := endToEnd, "end-to-end metrics (untraced)"
	if cfg.trace {
		defs, title = perLayer, "per-layer metrics (traced run)"
	}
	m := metricSet{}
	for k, v := range r.Metrics {
		m[k] = v.Value
	}
	printMetrics(&b, title, defs, m)
	fmt.Fprintf(&b, "ops attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for i, e := range r.errs {
		if i == 10 {
			fmt.Fprintf(&b, "  ... and %d more\n", len(r.errs)-10)
			break
		}
		fmt.Fprintf(&b, "  error: %s\n", e)
	}
	return b.String()
}

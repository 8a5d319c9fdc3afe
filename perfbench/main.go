// Command perfbench is the repository benchmark: one process runs one
// workload for a fixed time, checks the program's outputs, and prints
// every metric by name with its unit, ending with one JSON result line.
//
// Usage (normally through run.sh, which builds this package first):
//
//	perfbench --workload compile-sweep|campaign-batch|serve-small|paper-quick|all
//	          --seed n --seconds s --trace 0|1
//
// "all" runs the four workloads one after another, each in its own
// process, and prints each one's lines and result.
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no benchmark spans. With --trace 1 the named workload runs twice, once
// plain and once with spans recorded around every call into a module's
// public functions, and then every other workload runs a shorter traced
// pass, so that each per-layer metric is measured on the workload it
// targets; the result carries the per-layer metrics, the self-time tables
// go to stdout and the chrome traces to .bench_build/trace-<workload>.json.
// RECORD.md maps every per-layer metric to the end-to-end metric it should
// move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"encore/internal/obs"
)

// metricDef names one reported metric. The end-to-end set is shared by
// every workload so each run reports all of them; alias is the name the
// metric carries on this workload in the human-readable lines.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	// The tail is p75, not p90: campaign-batch and paper-quick finish
	// only 30-40 campaigns or 5-8 suites in a run, so a p90 rests on the
	// run's three slowest (or its slowest) and swung 0.4-0.7 of its
	// median between runs of the same code.
	{"latency_ms_p75", "ms"},
	{"first_result_ms_p50", "ms"},
}

// workloadDef is one benchmark workload. run sets up (timed through
// timeSetup), runs the timed phase, then the untimed output checks, and
// stores the metrics in r.
type workloadDef struct {
	name  string
	alias map[string]string // end-to-end metric → name on this workload
	run   func(r *runCtx) error
}

var workloads = []workloadDef{compileSweep, campaignBatch, serveSmall, paperQuick}

func main() {
	if len(os.Args) > 1 && os.Args[1] == paperChildArg {
		if err := paperChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(argv []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced per-layer run")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace)
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}

	if *trace == 0 {
		r := newRunCtx(w, *seed, *seconds, false)
		if err := w.run(r); err != nil {
			return err
		}
		r.printE2E()
		return r.printResult(endToEnd, r.e2e)
	}

	// Traced run: the plain half of the named workload gives the
	// reference for the tracing overhead, its traced half that
	// workload's layers. Every per-layer metric is measured on the
	// workload it targets, so shorter traced passes of the other
	// workloads follow.
	plain := newRunCtx(w, *seed, *seconds/2, false)
	if err := w.run(plain); err != nil {
		return err
	}
	traced := newRunCtx(w, *seed, *seconds/2, true)
	if err := w.run(traced); err != nil {
		return err
	}
	traced.traceOverhead(plain)
	passes := map[string]*runCtx{w.name: traced}
	for i := range workloads {
		o := &workloads[i]
		if o == w {
			continue
		}
		p := newRunCtx(o, *seed, *seconds/4, true)
		if err := o.run(p); err != nil {
			return err
		}
		passes[o.name] = p
	}
	sum := &runCtx{w: w, attempted: plain.attempted, failed: plain.failed, layers: map[string]float64{}}
	for _, o := range workloads {
		p := passes[o.name]
		p.printLayers()
		if err := p.writeChromeTrace(); err != nil {
			return err
		}
		sum.attempted += p.attempted
		sum.failed += p.failed
	}
	if err := printLayerMetrics(w, passes, sum.layers); err != nil {
		return err
	}
	return sum.printResult(perLayer, sum.layers)
}

// runAll runs every workload, each in a process of its own so that no
// workload's heap or peak RSS carries into the next, and fails if any
// workload's output checks failed.
func runAll(seed uint64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		var res struct{ Correct bool }
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil || !res.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workloads failed their output checks", bad)
	}
	return nil
}

// runCtx carries one measured run: its knobs, the registry the program
// reports into, the benchmark's own span registry, and the results.
type runCtx struct {
	w       *workloadDef
	seed    uint64
	seconds float64
	traced  bool

	// reg is the fresh registry passed as Config.Obs to every module, so
	// its counters and spans hold this run alone. Benchmark spans go to
	// it too, only in a traced run; a nil *obs.Span no-ops otherwise.
	reg *obs.Registry

	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	notes             []string
	// selfRows, when set by the workload, replaces the self-time table
	// computed from this process's spans: paper-quick's exhibits run in
	// child processes and are ranked by their whole duration.
	selfRows []selfRow
}

func newRunCtx(w *workloadDef, seed uint64, seconds float64, traced bool) *runCtx {
	r := &runCtx{
		w: w, seed: seed, seconds: seconds, traced: traced,
		reg:    obs.NewRegistry(),
		e2e:    map[string]float64{},
		layers: map[string]float64{},
	}
	if traced {
		r.reg.CaptureSpans(true)
	}
	return r
}

// span opens a benchmark span around one call into a module; it is a
// no-op outside a traced run.
func (r *runCtx) span(path string) *obs.Span {
	if !r.traced {
		return nil
	}
	return r.reg.Span(path)
}

func noSpan(string) *obs.Span { return nil }

// check records the outcome of one output check.
func (r *runCtx) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

func (r *runCtx) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *runCtx) printE2E() {
	fmt.Printf("# workload %s seed %d seconds %g\n", r.w.name, r.seed, r.seconds)
	for _, m := range endToEnd {
		label := m.name
		if a := r.w.alias[m.name]; a != "" {
			label = a + " (" + m.name + ")"
		}
		fmt.Printf("%-16s %-48s %14.4f %s\n", r.w.name, label, r.e2e[m.name], m.unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-16s %-48s %14.4f %s (%d/%d)\n", r.w.name, "failed_frac", frac, "frac", r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Printf("%-16s # %s\n", r.w.name, n)
	}
}

func (r *runCtx) printResult(defs []metricDef, vals map[string]float64) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]val{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = val{v, d.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

func (r *runCtx) writeChromeTrace() error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+r.w.name+".json")
	if err := obs.WriteChromeTraceFile(path, r.reg); err != nil {
		return err
	}
	fmt.Printf("%-16s # chrome trace written to %s\n", r.w.name, path)
	return nil
}

// deadline is the end of the measured phase starting now.
func (r *runCtx) deadline() time.Time {
	return time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
}

// setupRepeats is how many times each run sets up; setup_s is the
// median, which keeps it steady on a noisy machine.
const setupRepeats = 11

// timeSetup runs setup n times and records the median as setup_s; the
// last set-up's state is the one the timed phase uses.
func timeSetup[T any](r *runCtx, n int, setup func() (T, error)) (T, error) {
	var (
		st    T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			runtime.GC()
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, err
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	r.e2e["setup_s"] = median(times)
	return st, nil
}

// median and quantile follow statistics.quantiles' default (exclusive)
// method for quartiles; quantile(xs, 0.5) is the median.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)+1)
	lo := int(math.Floor(pos))
	switch {
	case lo < 1:
		return s[0]
	case lo >= len(s):
		return s[len(s)-1]
	}
	return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
}

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// peakRSSMB reads the process's VmHWM. Each workload run is its own
// process, and resetPeak starts a fresh peak before each operation, so
// one operation's (or workload's) peak never leaks into the next.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// resetPeak resets VmHWM to the current RSS. Where the kernel refuses,
// the peak stays the process's, which only makes it larger.
func resetPeak() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// memDelta captures runtime allocation and GC counts across a phase.
type memDelta struct{ alloc, gc uint64 }

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, uint64(ms.NumGC)}
}

// recordMem stores the per-operation allocation and the GC cycles of a
// phase that completed ops operations.
func (r *runCtx) recordMem(before memDelta, ops int) {
	after := readMem()
	if ops > 0 {
		r.layers["runtime.alloc_bytes_per_op"] = float64(after.alloc-before.alloc) / float64(ops)
	}
	r.layers["runtime.gc_cycles"] = float64(after.gc - before.gc)
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"encore/internal/experiments"
	"encore/internal/interp"
	"encore/internal/obs"
	"encore/internal/workload"
)

// paper-quick: the twelve paper exhibits of experiments.Harness{Quick:
// true}, each repetition in a fresh process because the harness compile
// cache is process-wide and every encore-bench invocation starts cold.
// Two sfi paths run nowhere else: sfi.MeasureMasking (fig8) and the
// checkpoint-free replay campaigns of abl-input. The exhibits are fixed
// inputs, so the seed does not change this workload.
var paperQuick = workloadDef{
	name: "paper-quick",
	alias: map[string]string{
		"throughput_per_s":    "exhibits_per_s",
		"latency_ms_p50":      "paper_suite_ms_p50 (paper_suite_s x1000)",
		"latency_ms_p75":      "paper_suite_ms_p75",
		"first_result_ms_p50": "first_exhibit_ms_p50",
	},
	run: runPaperQuick,
}

var exhibits = []string{
	"fig1", "table1", "fig5", "fig6", "fig7a", "fig7b", "fig8",
	"abl-eta", "abl-budget", "abl-signature", "abl-detector", "abl-input",
}

// paperChildArg selects the child mode of the benchmark binary.
const paperChildArg = "paper-child"

// firstProbesPerSuite is how many first-result probes follow each suite
// repetition: children that run the first exhibit only, whose start →
// first exhibit done is the same as a full repetition's. A run holds
// only five to eight repetitions, too few for a steady median of a
// ~150 ms figure on a shared host; the probes give it seven times as
// many samples for about a sixth of the run.
const firstProbesPerSuite = 6

// childReport is what one child process reports on its last line.
type childReport struct {
	ExhibitMS  map[string]float64 `json:"exhibit_ms"`
	Digest     map[string]string  `json:"digest"`
	MaskingMS  float64            `json:"masking_ms"`
	AllocBytes uint64             `json:"alloc_bytes"`
	GCCycles   uint32             `json:"gc_cycles"`
}

// paperChild runs in a fresh process: either the set-up probe (build and
// run every kernel once) or one suite repetition.
func paperChild(argv []string) error {
	fs := flag.NewFlagSet(paperChildArg, flag.ContinueOnError)
	setup := fs.Bool("setup", false, "build and run every kernel once, then exit")
	trace := fs.String("trace", "", "write the chrome trace of this repetition here")
	first := fs.Bool("first", false, "run the first exhibit only (a first-result probe)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *setup {
		for _, sp := range workload.All() {
			art := sp.Build()
			m := interp.New(art.Mod, interp.Config{})
			_, err := m.Run()
			m.Release()
			if err != nil {
				return fmt.Errorf("%s: %w", sp.Name, err)
			}
		}
		return nil
	}
	reg := obs.Default() // the harness reports into the default registry
	if *trace != "" {
		if err := os.MkdirAll(filepath.Dir(*trace), 0o755); err != nil {
			return err
		}
		reg.CaptureSpans(true)
	}
	h := &experiments.Harness{Quick: true}
	run := map[string]func() (any, error){
		"fig1":          func() (any, error) { return h.Fig1() },
		"table1":        func() (any, error) { return h.Table1("") },
		"fig5":          func() (any, error) { return h.Fig5() },
		"fig6":          func() (any, error) { return h.Fig6() },
		"fig7a":         func() (any, error) { return h.Fig7a() },
		"fig7b":         func() (any, error) { return h.Fig7b() },
		"fig8":          func() (any, error) { return h.Fig8() },
		"abl-eta":       func() (any, error) { return h.AblationEta(nil) },
		"abl-budget":    func() (any, error) { return h.AblationBudget(nil) },
		"abl-signature": func() (any, error) { return h.AblationSignature() },
		"abl-detector":  func() (any, error) { return h.AblationDetector(100) },
		"abl-input":     func() (any, error) { return h.AblationInputShift(7) },
	}
	rep := childReport{ExhibitMS: map[string]float64{}, Digest: map[string]string{}}
	todo := exhibits
	if *first {
		todo = exhibits[:1]
	}
	for _, name := range todo {
		var sp *obs.Span
		if *trace != "" {
			sp = reg.Span("bench/experiments." + name)
		}
		t0 := time.Now()
		res, err := run[name]()
		rep.ExhibitMS[name] = ms(time.Since(t0))
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		sum := sha256.Sum256(raw)
		rep.Digest[name] = hex.EncodeToString(sum[:8])
		fmt.Println("done", name)
	}
	for _, sp := range reg.Snapshot().Spans {
		if sp.Name == "sfi/masking" {
			rep.MaskingMS = sp.TotalMS
		}
	}
	m := readMem()
	rep.AllocBytes, rep.GCCycles = m.alloc, uint32(m.gc)
	if *trace != "" {
		if err := obs.WriteChromeTraceFile(*trace, reg); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// childRun is one finished child process as the parent saw it.
type childRun struct {
	wall, first time.Duration
	rep         childReport
	maxRSSMB    float64
}

func spawnChild(args ...string) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append([]string{paperChildArg}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	cr := &childRun{}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "done ") && cr.first == 0 {
			cr.first = time.Since(t0)
		}
		last = line
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	cr.wall = time.Since(t0)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.maxRSSMB = float64(ru.Maxrss) / 1024
	}
	if strings.HasPrefix(last, "{") {
		if err := json.Unmarshal([]byte(last), &cr.rep); err != nil {
			return nil, err
		}
	}
	return cr, nil
}

func runPaperQuick(r *runCtx) error {
	if _, err := timeSetup(r, setupRepeats, func() (*childRun, error) { return spawnChild("--setup") }); err != nil {
		return err
	}
	var (
		runs, probes    []*childRun
		suiteMS, firstM []float64
	)
	end := r.deadline()
	for len(runs) == 0 || time.Now().Before(end) {
		var args []string
		if r.traced {
			args = append(args, "--trace", ".bench_build/trace-paper-quick-child.json")
		}
		cr, err := spawnChild(args...)
		if err != nil {
			return err
		}
		runs = append(runs, cr)
		suiteMS = append(suiteMS, ms(cr.wall))
		firstM = append(firstM, ms(cr.first))
		for n := 0; n < firstProbesPerSuite; n++ {
			pr, err := spawnChild("--first")
			if err != nil {
				return err
			}
			probes = append(probes, pr)
			firstM = append(firstM, ms(pr.first))
		}
	}
	var peaks []float64
	for _, cr := range runs {
		peaks = append(peaks, cr.maxRSSMB)
	}
	r.e2e["throughput_per_s"] = float64(len(exhibits)) / (median(suiteMS) / 1000)
	r.e2e["latency_ms_p50"] = median(suiteMS)
	r.e2e["latency_ms_p75"] = quantile(suiteMS, 0.75)
	r.e2e["first_result_ms_p50"] = median(firstM)
	r.e2e["peak_rss_mb"] = median(peaks)
	r.note("%d suite repetitions, paper_suite_s median %.3f; first exhibit median over them and %d probes",
		len(runs), median(suiteMS)/1000, len(probes))

	// Output check: every repetition's exhibit results are equal, and
	// every probe's first exhibit equals the repetitions'.
	for _, cr := range runs {
		for _, e := range exhibits {
			r.check(cr.rep.Digest[e] != "" && cr.rep.Digest[e] == runs[0].rep.Digest[e],
				"%s: result digest %q differs from the first repetition's %q", e, cr.rep.Digest[e], runs[0].rep.Digest[e])
		}
	}
	for _, pr := range probes {
		e := exhibits[0]
		r.check(pr.rep.Digest[e] != "" && pr.rep.Digest[e] == runs[0].rep.Digest[e],
			"%s probe: result digest %q differs from the first repetition's %q", e, pr.rep.Digest[e], runs[0].rep.Digest[e])
	}

	var masking, alloc, gc []float64
	for _, e := range exhibits {
		var xs []float64
		for _, cr := range runs {
			xs = append(xs, cr.rep.ExhibitMS[e])
		}
		v := median(xs)
		r.layers["experiments."+e+"_ms"] = v
		r.selfRows = append(r.selfRows, selfRow{"bench/experiments." + e, v, len(xs)})
	}
	for _, cr := range runs {
		masking = append(masking, cr.rep.MaskingMS)
		alloc = append(alloc, float64(cr.rep.AllocBytes))
		gc = append(gc, float64(cr.rep.GCCycles))
	}
	r.layers["sfi.masking_ms"] = median(masking)
	r.layers["runtime.alloc_bytes_per_op"] = median(alloc)
	r.layers["runtime.gc_cycles"] = median(gc)
	return nil
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"encore/internal/alias"
	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/workload"
)

// compile-sweep: every kernel is analyzed once per alias mode, and each
// analysis is finalized at four budgets through Snapshot/Replay, the
// experiments' two-level pattern. core, alias, idem, region and xform do
// nearly all the work; interp runs only the profile and measure runs.
var compileSweep = workloadDef{
	name: "compile-sweep",
	alias: map[string]string{
		"throughput_per_s":    "compile_per_s",
		"latency_ms_p50":      "kernel_sweep_ms_p50",
		"latency_ms_p75":      "kernel_sweep_ms_p75",
		"first_result_ms_p50": "kernel_first_finalize_ms_p50",
	},
	run: runCompileSweep,
}

var (
	sweepModes   = []alias.Mode{alias.Static, alias.Optimistic, alias.Profiled}
	sweepBudgets = []float64{0.05, 0.10, 0.20, 0.40}
)

// compileSig is what one finalized configuration must reproduce on every
// run: its region and class counts and its measured dynamic lengths.
type compileSig struct {
	regions, selected   int
	classes             core.ClassCounts
	baseline, withCkpts int64
}

func sigOf(res *core.Result) compileSig {
	sel := 0
	for _, rg := range res.Regions {
		if rg.Selected {
			sel++
		}
	}
	return compileSig{len(res.Regions), sel, res.ClassCounts(), res.BaselineInstrs, res.TotalInstrs}
}

type sweepKey struct {
	app    string
	mode   alias.Mode
	budget float64
}

// sweepState is what set-up prepares: the seeded kernel order and each
// kernel's output checksum on the reference engine, which the output
// check compares every instrumented module against.
type sweepState struct {
	order  []workload.Spec
	golden map[string]uint64
}

func runCompileSweep(r *runCtx) error {
	st, err := timeSetup(r, setupRepeats, func() (*sweepState, error) {
		specs := workload.All()
		rand.New(rand.NewSource(int64(r.seed))).Shuffle(len(specs), func(i, j int) {
			specs[i], specs[j] = specs[j], specs[i]
		})
		st := &sweepState{order: specs, golden: map[string]uint64{}}
		for _, sp := range specs {
			art := sp.Build()
			sum, err := refChecksum(art.Mod, nil, art.Outputs, interp.Config{Reference: true})
			if err != nil {
				return nil, fmt.Errorf("%s: reference run: %w", sp.Name, err)
			}
			st.golden[sp.Name] = sum
			// One default compile per kernel warms the process, so the
			// first timed sweep does not also pay its cold start.
			cfg := core.DefaultConfig()
			cfg.Obs = obs.NewRegistry()
			if _, err := core.Compile(sp.Build().Mod, cfg); err != nil {
				return nil, fmt.Errorf("%s: warm-up compile: %w", sp.Name, err)
			}
		}
		return st, nil
	})
	if err != nil {
		return err
	}

	sigs := map[sweepKey]compileSig{}
	var (
		kernelMS, firstMS []float64
		peaks             []float64 // VmHWM of each kernel's sweep
		results           int
		analyzeMS         []float64
		replayMS, finMS   []float64
	)
	mem := readMem()
	start := time.Now()
	end := r.deadline()
	// Only whole sweeps run, so every kernel weighs the same in each
	// metric whatever the run length.
	for i := 0; i%len(st.order) != 0 || time.Now().Before(end); i++ {
		sp := st.order[i%len(st.order)]
		resetPeak()
		k0 := time.Now()
		first := true
		for _, mode := range sweepModes {
			cfg := core.DefaultConfig()
			cfg.AliasMode = mode
			cfg.Obs = r.reg
			s := r.span("bench/workload.Build")
			art := sp.Build()
			s.End()
			t0 := time.Now()
			s = r.span("bench/core.Analyze")
			a, err := core.Analyze(art.Mod, cfg)
			s.End()
			analyzeMS = append(analyzeMS, ms(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("%s/%v: analyze: %w", sp.Name, mode, err)
			}
			s = r.span("bench/core.Snapshot")
			snap, err := a.Snapshot()
			s.End()
			if err != nil {
				return fmt.Errorf("%s/%v: snapshot: %w", sp.Name, mode, err)
			}
			for _, b := range sweepBudgets {
				s := r.span("bench/workload.Build")
				fresh := sp.Build()
				s.End()
				t0 := time.Now()
				s = r.span("bench/core.Replay")
				ra, err := snap.Replay(fresh.Mod)
				s.End()
				replayMS = append(replayMS, ms(time.Since(t0)))
				if err != nil {
					return fmt.Errorf("%s/%v: replay: %w", sp.Name, mode, err)
				}
				fcfg := cfg
				fcfg.Budget = b
				t0 = time.Now()
				s = r.span("bench/core.Finalize")
				res, err := ra.Finalize(fcfg)
				s.End()
				finMS = append(finMS, ms(time.Since(t0)))
				if err != nil {
					return fmt.Errorf("%s/%v/%g: finalize: %w", sp.Name, mode, b, err)
				}
				results++
				if first {
					firstMS = append(firstMS, ms(time.Since(k0)))
					first = false
				}
				key := sweepKey{sp.Name, mode, b}
				sig := sigOf(res)
				if prev, ok := sigs[key]; ok {
					r.check(prev == sig, "%v: counts %+v differ from first run %+v", key, sig, prev)
				} else {
					sigs[key] = sig
				}
			}
		}
		kernelMS = append(kernelMS, ms(time.Since(k0)))
		peaks = append(peaks, peakRSSMB())
	}
	wall := time.Since(start)
	r.recordMem(mem, results)

	// Throughput from the median whole sweep, so one slow stretch of a
	// run does not move it.
	var sweepS []float64
	for i := 0; i+len(st.order) <= len(kernelMS); i += len(st.order) {
		sum := 0.0
		for _, x := range kernelMS[i : i+len(st.order)] {
			sum += x
		}
		sweepS = append(sweepS, sum/1000)
	}
	r.e2e["throughput_per_s"] = float64(len(st.order)*len(sweepModes)*len(sweepBudgets)) / median(sweepS)
	r.e2e["latency_ms_p50"] = median(kernelMS)
	r.e2e["latency_ms_p75"] = quantile(kernelMS, 0.75)
	r.e2e["first_result_ms_p50"] = median(firstMS)
	r.e2e["peak_rss_mb"] = median(peaks)
	r.note("%d finalize results from %d kernel sweeps (%d distinct configs) in %.2fs",
		results, len(kernelMS), len(sigs), wall.Seconds())

	r.compileLayers(analyzeMS, replayMS, finMS)
	if err := verifySweep(r, st, sigs); err != nil {
		return err
	}
	if r.traced {
		// The golden runs of the profile stage, timed from outside.
		var d decomp
		for _, sp := range st.order {
			art := sp.Build()
			m, _, _, err := d.goldenAndLadder(r, art.Mod, nil, art.Outputs)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.Name, err)
			}
			m.Release()
		}
		d.report(r)
	}
	return nil
}

// verifySweep is the untimed output check: every configuration the timed
// phase finalized is compiled once more, run on the reference engine, and
// must give its uninstrumented kernel's output checksum and the counts
// the timed phase recorded.
func verifySweep(r *runCtx, st *sweepState, sigs map[sweepKey]compileSig) error {
	ref := interp.Config{Reference: true}
	for _, sp := range st.order {
		want := st.golden[sp.Name]
		for _, mode := range sweepModes {
			cfg := core.DefaultConfig()
			cfg.AliasMode = mode
			a, err := core.Analyze(sp.Build().Mod, cfg)
			if err != nil {
				return err
			}
			snap, err := a.Snapshot()
			if err != nil {
				return err
			}
			for _, b := range sweepBudgets {
				key := sweepKey{sp.Name, mode, b}
				timed, ok := sigs[key]
				if !ok {
					continue
				}
				art := sp.Build()
				ra, err := snap.Replay(art.Mod)
				if err != nil {
					return err
				}
				fcfg := cfg
				fcfg.Budget = b
				res, err := ra.Finalize(fcfg)
				if err != nil {
					return err
				}
				r.check(sigOf(res) == timed, "%v: verify counts differ", key)
				got, err := refChecksum(res.Mod, res.Metas, art.Outputs, ref)
				r.check(err == nil && got == want, "%v: instrumented checksum %x (err %v) != kernel %x", key, got, err, want)
			}
		}
	}
	return nil
}

func refChecksum(mod *ir.Module, metas []interp.RegionMeta, outs []*ir.Global, cfg interp.Config) (uint64, error) {
	m := interp.New(mod, cfg)
	defer m.Release()
	m.SetRuntime(metas)
	if _, err := m.Run(); err != nil {
		return 0, err
	}
	return m.Checksum(outs...), nil
}

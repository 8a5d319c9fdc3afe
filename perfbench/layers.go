package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"encore/internal/obs"
)

// layerDef is one per-layer metric with the end-to-end metric it should
// move and the workload it should move it on (RECORD.md has the full map,
// including the workloads where no change is predicted).
type layerDef struct {
	name, unit, moves, on string
}

var layerDefs = []layerDef{
	{"core.analyze_ms", "ms", "compile_per_s", "compile-sweep"},
	{"core.analyze.profile_ms", "ms", "compile_per_s", "compile-sweep"},
	{"core.analyze.alias_ms", "ms", "compile_per_s", "compile-sweep"},
	{"core.analyze.regions_ms", "ms", "compile_per_s", "compile-sweep"},
	{"core.replay_ms", "ms", "compile_per_s, campaign_latency_ms_p50", "compile-sweep, serve-small"},
	{"core.finalize_ms", "ms", "compile_per_s, campaign_latency_ms_p50", "compile-sweep, serve-small"},
	{"core.finalize.select_ms", "ms", "compile_per_s, campaign_latency_ms_p50", "compile-sweep, serve-small"},
	{"core.finalize.instrument_ms", "ms", "compile_per_s, campaign_latency_ms_p50", "compile-sweep, serve-small"},
	{"core.finalize.measure_ms", "ms", "compile_per_s, campaign_latency_ms_p50", "compile-sweep, serve-small"},
	{"core.finalize_per_analyze", "ratio", "compile_per_s", "compile-sweep"},
	{"interp.resume_us", "us", "trials_per_s", "campaign-batch"},
	{"interp.resume_minstr_per_s", "Minstr/s", "trials_per_s", "campaign-batch"},
	{"interp.instrs_per_trial", "count", "trials_per_s", "campaign-batch"},
	{"interp.checksum_us", "us", "trials_per_s", "campaign-batch"},
	{"interp.restore_us", "us", "trials_per_s", "campaign-batch"},
	{"interp.restore_words", "count", "trials_per_s", "campaign-batch"},
	{"sfi.fork_frac", "frac", "trials_per_s", "campaign-batch"},
	{"sfi.replay_saved_frac", "frac", "trials_per_s", "campaign-batch"},
	{"interp.golden_ms", "ms", "compile_per_s, paper_suite_s", "compile-sweep, paper-quick"},
	{"interp.golden_minstr_per_s", "Minstr/s", "compile_per_s, paper_suite_s", "compile-sweep, paper-quick"},
	{"interp.predecode_ms", "ms", "first_record_ms_p50, campaign_latency_ms_p50", "serve-small"},
	{"interp.new_machine_us", "us", "first_record_ms_p50, campaign_latency_ms_p50", "serve-small"},
	{"interp.capture_ms", "ms", "first_record_ms_p50, campaign_latency_ms_p50", "serve-small"},
	{"sfi.header_ms", "ms", "first_record_ms_p50, campaign_latency_ms_p50", "serve-small"},
	{"sfi.campaign_ms", "ms", "trials_per_s", "campaign-batch"},
	{"sfi.trial_us", "us", "trials_per_s", "campaign-batch"},
	{"sfi.ledger_bytes_per_trial", "B", "trials_per_s", "campaign-batch"},
	{"sfi.ledger_write_us", "us", "trials_per_s", "campaign-batch"},
	{"stats.observe_us", "us", "trials_per_s", "campaign-batch"},
	{"sfi.masking_ms", "ms", "paper_suite_s", "paper-quick"},
	{"serve.submit_ms", "ms", "campaign_latency_ms_p50/p75, campaigns_per_s", "serve-small"},
	{"serve.to_header_ms", "ms", "campaign_latency_ms_p50/p75, campaigns_per_s", "serve-small"},
	{"serve.trials_ms", "ms", "campaign_latency_ms_p50/p75, campaigns_per_s", "serve-small"},
	{"runtime.alloc_bytes_per_op", "B", "first_record_ms_p50, peak_rss_mb", "serve-small"},
	{"runtime.gc_cycles", "count", "first_record_ms_p50, peak_rss_mb", "serve-small"},
	{"bench.trace_overhead_pct", "%", "every end-to-end metric (tracing cost)", "all"},
	{"bench.dominant_share", "frac", "the workload's headline metric", "all"},
}

// perLayer is the per-layer metric list the traced run reports; the
// exhibit timings are appended from the paper workload's exhibit list.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, d := range layerDefs {
		defs = append(defs, metricDef{d.name, d.unit})
	}
	for _, e := range exhibits {
		defs = append(defs, metricDef{"experiments." + e + "_ms", "ms"})
	}
	return defs
}()

func layerDefOf(name string) layerDef {
	for _, d := range layerDefs {
		if d.name == name {
			return d
		}
	}
	return layerDef{name, "ms", "paper_suite_s", "paper-quick"}
}

// spanMeanMS is the mean duration of a program span path in a snapshot.
func spanMeanMS(s *obs.Snapshot, path string) (float64, bool) {
	for _, sp := range s.Spans {
		if sp.Name == path && sp.Count > 0 {
			return sp.TotalMS / float64(sp.Count), true
		}
	}
	return 0, false
}

// programLayers reads the spans and counters the program records itself
// into the run's registry.
func (r *runCtx) programLayers() {
	snap := r.reg.Snapshot()
	for name, path := range map[string]string{
		"core.analyze.profile_ms":     "compile/analyze/profile",
		"core.analyze.alias_ms":       "compile/analyze/alias",
		"core.analyze.regions_ms":     "compile/analyze/regions",
		"core.finalize.select_ms":     "compile/finalize/select",
		"core.finalize.instrument_ms": "compile/finalize/instrument",
		"core.finalize.measure_ms":    "compile/finalize/measure",
	} {
		if v, ok := spanMeanMS(snap, path); ok {
			r.layers[name] = v
		}
	}
	// Where the benchmark cannot call Analyze/Finalize itself (the daemon
	// compiles inside serve/campaign), the program's own spans stand in.
	for name, path := range map[string]string{
		"core.analyze_ms":  "compile/analyze",
		"core.finalize_ms": "compile/finalize",
	} {
		if _, done := r.layers[name]; !done {
			if v, ok := spanMeanMS(snap, path); ok {
				r.layers[name] = v
			}
		}
	}
	if a := counter(snap, "compile.analyze.runs"); a > 0 {
		r.layers["core.finalize_per_analyze"] = float64(counter(snap, "compile.finalize.runs")) / float64(a)
	}
}

// compileLayers records the benchmark-timed compile calls.
func (r *runCtx) compileLayers(analyzeMS, replayMS, finMS []float64) {
	r.layers["core.analyze_ms"] = median(analyzeMS)
	r.layers["core.replay_ms"] = median(replayMS)
	r.layers["core.finalize_ms"] = median(finMS)
}

// traceOverhead compares the traced run with the plain one.
func (r *runCtx) traceOverhead(plain *runCtx) {
	fmt.Printf("%-16s # tracing overhead (traced vs plain half-runs):\n", r.w.name)
	for _, m := range endToEnd {
		p, t := plain.e2e[m.name], r.e2e[m.name]
		fmt.Printf("%-16s #   %-22s plain %12.4f traced %12.4f %s\n", r.w.name, m.name, p, t, m.unit)
	}
	if t := r.e2e["throughput_per_s"]; t > 0 {
		r.layers["bench.trace_overhead_pct"] = (plain.e2e["throughput_per_s"]/t - 1) * 100
	}
}

// selfRow is one span path's self time: its duration minus the part
// covered by its child spans.
type selfRow struct {
	path   string
	selfMS float64
	count  int
}

// isChild reports whether span c nests under span p: by path, or — for
// the benchmark's own call spans — any program span inside the call.
// Concurrent instances of one path (two clients, two campaigns) can
// overlap in time, so their children may be charged to either.
func isChild(p, c obs.SpanEvent) bool {
	if strings.HasPrefix(c.Path, p.Path+"/") {
		return true
	}
	return strings.HasPrefix(p.Path, "bench/") && !strings.HasPrefix(c.Path, "bench/") && !strings.HasPrefix(c.Path, "client/")
}

func selfTimes(events []obs.SpanEvent) []selfRow {
	sort.Slice(events, func(i, j int) bool {
		if !events[i].Start.Equal(events[j].Start) {
			return events[i].Start.Before(events[j].Start)
		}
		return events[i].Dur > events[j].Dur
	})
	rows := map[string]*selfRow{}
	for i, p := range events {
		pend := p.Start.Add(p.Dur)
		covered := time.Duration(0)
		var cur0, cur1 time.Time
		for _, c := range events[i+1:] {
			if !c.Start.Before(pend) {
				break
			}
			cend := c.Start.Add(c.Dur)
			if cend.After(pend) || !isChild(p, c) {
				continue
			}
			switch {
			case cur1.IsZero():
				cur0, cur1 = c.Start, cend
			case c.Start.After(cur1):
				covered += cur1.Sub(cur0)
				cur0, cur1 = c.Start, cend
			case cend.After(cur1):
				cur1 = cend
			}
		}
		if !cur1.IsZero() {
			covered += cur1.Sub(cur0)
		}
		row := rows[p.Path]
		if row == nil {
			row = &selfRow{path: p.Path}
			rows[p.Path] = row
		}
		row.selfMS += ms(p.Dur - covered)
		row.count++
	}
	var out []selfRow
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfMS > out[j].selfMS })
	return out
}

// moduleOf assigns a span path to the module doing the work.
func moduleOf(path string) string {
	switch {
	case strings.HasPrefix(path, "bench/"), strings.HasPrefix(path, "client/"):
		name := path[strings.IndexByte(path, '/')+1:]
		if i := strings.IndexByte(name, '.'); i > 0 {
			return name[:i]
		}
		return name
	case path == "compile/analyze/profile", path == "compile/analyze/conflicts",
		path == "compile/finalize/measure":
		// The profiling, conflict-observation and measurement runs
		// execute the module on the interpreter.
		return "interp"
	case strings.HasPrefix(path, "compile"):
		return "core"
	}
	return path[:strings.IndexAny(path+"/", "/")]
}

// dominance describes which layer a workload was built to stress: among
// the self-time rows matching scope, the intended rows should rank first.
type dominance struct {
	scope    func(path string) bool
	byModule bool
	intended []string
}

var dominants = map[string]dominance{
	"compile-sweep":  {func(string) bool { return true }, true, []string{"core"}},
	"campaign-batch": {func(p string) bool { return strings.HasPrefix(p, "bench/interp.") }, false, []string{"bench/interp.Resume"}},
	"serve-small":    {func(p string) bool { return strings.HasPrefix(p, "client/") }, false, []string{"client/serve.to_header"}},
	"paper-quick":    {func(string) bool { return true }, false, []string{"bench/experiments.abl-input", "bench/experiments.fig8"}},
}

// printLayers prints the pass's self-time table and dominance verdict.
func (r *runCtx) printLayers() {
	r.programLayers()
	rows, header := r.selfRows, "time by exhibit (exhibits run one after another, so each counts whole)"
	if rows == nil {
		rows, header = selfTimes(r.reg.SpanEvents()), "self time by span (duration minus child spans)"
	}
	fmt.Printf("%-16s # %s:\n", r.w.name, header)
	for _, row := range rows {
		fmt.Printf("%-16s #   %-44s %10.2f ms  x%d\n", r.w.name, row.path, row.selfMS, row.count)
	}
	r.judgeDominance(rows, dominants[r.w.name])
	for _, n := range r.notes {
		fmt.Printf("%-16s # %s\n", r.w.name, n)
	}
}

// printLayerMetrics takes every per-layer metric from the pass of the
// workload it targets (the first one listed; the run's own workload for
// the bench.* metrics) and prints it beside the end-to-end metric it
// should move.
func printLayerMetrics(w *workloadDef, passes map[string]*runCtx, out map[string]float64) error {
	fmt.Printf("# per-layer metrics: metric, value, unit -> should move, on workload\n")
	for _, m := range perLayer {
		d := layerDefOf(m.name)
		from := strings.Split(d.on, ", ")[0]
		if passes[from] == nil {
			from = w.name
		}
		v, ok := passes[from].layers[m.name]
		if !ok {
			return fmt.Errorf("%s was not measured on %s", m.name, from)
		}
		out[m.name] = v
		fmt.Printf("%-34s %16.4f %-8s -> %s on %s\n", m.name, v, m.unit, d.moves, d.on)
	}
	return nil
}

func (r *runCtx) judgeDominance(rows []selfRow, dom dominance) {
	shares := map[string]float64{}
	total := 0.0
	for _, row := range rows {
		if !dom.scope(row.path) {
			continue
		}
		key := row.path
		if dom.byModule {
			key = moduleOf(row.path)
		}
		shares[key] += row.selfMS
		total += row.selfMS
	}
	var keys []string
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return shares[keys[i]] > shares[keys[j]] })
	want := map[string]bool{}
	intended := 0.0
	for _, k := range dom.intended {
		want[k] = true
		intended += shares[k]
	}
	hit := len(keys) >= len(dom.intended)
	for i := 0; hit && i < len(dom.intended); i++ {
		hit = want[keys[i]]
	}
	if total > 0 {
		r.layers["bench.dominant_share"] = intended / total
	}
	verdict := "HOLDS"
	if !hit {
		verdict = "MISSED"
	}
	fmt.Printf("%-16s # dominant layer: intended %v, %.1f%% of self time; ranking:", r.w.name, dom.intended, 100*intended/total)
	for i, k := range keys {
		if i == 5 {
			break
		}
		fmt.Printf(" %s=%.1f%%", k, 100*shares[k]/total)
	}
	fmt.Printf(" -> %s\n", verdict)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/serve"
	"encore/internal/sfi"
	"encore/internal/stats"
	"encore/internal/workload"
)

// campaign-batch: sfi.RunCampaign run the way `encore-sfi -trace -stats`
// runs it (JSONL ledger sink plus a stats.Estimator, encore-sfi's default
// engine, checkpoints and workers) on three kernels. Per-trial interp work
// dominates; per-campaign fixed cost is under 1%. The trial counts give
// each kernel about equal wall time at the commit that defined the
// benchmark:
//   - 175.vpr: short golden run, so restore and ladder have a high share;
//   - 256.bzip2: the longest golden run, so dispatch-bound;
//   - 183.equake: FP with the lowest recovery rate, so rollback and
//     failure paths run.
var campaignBatch = workloadDef{
	name: "campaign-batch",
	alias: map[string]string{
		"throughput_per_s":    "trials_per_s",
		"latency_ms_p50":      "campaign_ms_p50",
		"latency_ms_p75":      "campaign_ms_p75",
		"first_result_ms_p50": "first_record_ms_p50",
	},
	run: runCampaignBatch,
}

var batchKernels = []struct {
	app    string
	trials int
}{
	{"175.vpr", 5400},
	{"256.bzip2", 128},
	{"183.equake", 400},
}

const (
	sfiDmax        = 100 // encore-sfi / encore-serve default
	sfiCheckpoints = 16  // encore-sfi / encore-serve default
	// checkShardTrials is the size of the shard of every campaign that
	// the output check re-runs on the reference engine from instruction
	// zero, the slowest path there is.
	checkShardTrials = 4
	// firstProbes is how many first-record probes run per kernel after
	// each round of full campaigns. A campaign's first record waits for
	// its golden run, ladder capture and trial 1, whose cost depends on
	// where the seed puts trial 1's fault (25-65 ms on 256.bzip2), so one
	// sample per campaign leaves the run's median to the ten or so draws
	// of its campaigns; the probes give it five times as many.
	firstProbes = 4
)

// compiled is one kernel compiled once, as encore-sfi compiles it.
type compiled struct {
	app     string
	res     *core.Result
	outs    []*ir.Global
	regions []sfi.RegionInfo
}

func compileKernel(app string, reg *obs.Registry) (*compiled, error) {
	sp, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	art := sp.Build()
	cfg := core.DefaultConfig()
	cfg.Obs = reg
	res, err := core.Compile(art.Mod, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app, err)
	}
	return &compiled{app, res, art.Outputs, serve.RegionTable(res, sfiDmax)}, nil
}

// ledgerTap is the ledger's io.Writer: it counts bytes and lines, stamps
// the header and first trial line, keeps the lines of one trial range for
// the output check, and times every write in a traced run.
type ledgerTap struct {
	lo, hi   int // kept trial range [lo, hi)
	lines    int
	bytes    int64
	header   []byte
	kept     [][]byte
	headerAt time.Time
	firstAt  time.Time
	timed    bool
	writeDur time.Duration
	// onFirst, when set, is called once the first trial line is written.
	onFirst func()
}

func (t *ledgerTap) Write(p []byte) (int, error) {
	var t0 time.Time
	if t.timed {
		t0 = time.Now()
	}
	switch trial := t.lines - 1; {
	case trial < 0:
		t.headerAt = time.Now()
		t.header = append([]byte(nil), p...)
	case trial == 0:
		t.firstAt = time.Now()
		if t.onFirst != nil {
			t.onFirst()
		}
	}
	if trial := t.lines - 1; trial >= t.lo && trial < t.hi {
		t.kept = append(t.kept, append([]byte(nil), p...))
	}
	t.lines++
	t.bytes += int64(len(p))
	if t.timed {
		t.writeDur += time.Since(t0)
	}
	return len(p), nil
}

// timedStats wraps the estimator to time ObserveTrial in a traced run.
type timedStats struct {
	est *stats.Estimator
	dur time.Duration
	n   int
}

func (s *timedStats) ObserveCampaign(m sfi.CampaignMeta) { s.est.ObserveCampaign(m) }
func (s *timedStats) ObserveTrial(rec sfi.TrialRecord) {
	t0 := time.Now()
	s.est.ObserveTrial(rec)
	s.dur += time.Since(t0)
	s.n++
}

// campaignRun is one timed campaign and what its check needs.
type campaignRun struct {
	k     *compiled
	seed  uint64
	tap   *ledgerTap
	shard sfi.ShardRange
	res   *sfi.CampaignResult
}

func runCampaignBatch(r *runCtx) error {
	kernels, err := timeSetup(r, setupRepeats, func() ([]*compiled, error) {
		var ks []*compiled
		for _, bk := range batchKernels {
			k, err := compileKernel(bk.app, r.reg)
			if err != nil {
				return nil, err
			}
			// A short warm-up campaign per kernel, so the first timed
			// campaign does not also pay the process's cold start.
			_, err = sfi.RunCampaign(k.res.Mod, k.res.Metas, k.outs, sfi.CampaignConfig{
				Trials: bk.trials / 8, Dmax: sfiDmax, Checkpoints: sfiCheckpoints,
				Obs: obs.NewRegistry(), App: k.app, Regions: k.regions,
			})
			if err != nil {
				return nil, fmt.Errorf("%s: warm-up campaign: %w", k.app, err)
			}
			ks = append(ks, k)
		}
		return ks, nil
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(int64(r.seed)))
	type kernelStats struct {
		campMS, firstMS []float64
	}
	perKernel := map[string]*kernelStats{}
	for _, bk := range batchKernels {
		perKernel[bk.app] = &kernelStats{}
	}
	var (
		runs                  []campaignRun
		peaks                 []float64 // VmHWM of each campaign
		trials                int
		busy                  time.Duration
		headerMS              []float64
		writeDur, observeDur  time.Duration
		observed, ledgerBytes int64
		writes                int64
		// The probes report into a registry of their own, so the
		// per-layer counters hold the full campaigns alone.
		probeReg = obs.NewRegistry()
	)
	mem := readMem()
	end := r.deadline()
	for time.Now().Before(end) {
		for i, bk := range batchKernels {
			seed := rng.Uint64()
			// The checked shard is drawn from the campaign's own
			// partition, so a later commit cannot tune for one slice.
			shards, err := sfi.Partition(seed, bk.trials, bk.trials/checkShardTrials)
			if err != nil {
				return err
			}
			shard := shards[rng.Intn(len(shards))]
			tap := &ledgerTap{lo: shard.Lo, hi: shard.Hi, timed: r.traced}
			sink := &timedStats{est: stats.New()}
			var statsSink sfi.StatsSink = sink.est
			if r.traced {
				statsSink = sink
			}
			k := kernels[i]
			// Every campaign and probe starts on a heap handed back to
			// the OS, as encore-sfi's one campaign per process does, so
			// each starts from the same state and a campaign's peak RSS
			// is its own.
			debug.FreeOSMemory()
			resetPeak()
			t0 := time.Now()
			s := r.span("bench/sfi.RunCampaign")
			res, err := sfi.RunCampaign(k.res.Mod, k.res.Metas, k.outs, sfi.CampaignConfig{
				Trials: bk.trials, Seed: seed, Dmax: sfiDmax, Checkpoints: sfiCheckpoints,
				Obs: r.reg, App: k.app, Regions: k.regions,
				Trace: obs.NewJSONLSink(tap), Stats: statsSink,
			})
			s.End()
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s: campaign: %w", k.app, err)
			}
			busy += d
			peaks = append(peaks, peakRSSMB())
			trials += res.Executed
			ks := perKernel[k.app]
			ks.campMS = append(ks.campMS, ms(d))
			ks.firstMS = append(ks.firstMS, ms(tap.firstAt.Sub(t0)))
			headerMS = append(headerMS, ms(tap.headerAt.Sub(t0)))
			writeDur += tap.writeDur
			writes += int64(tap.lines)
			ledgerBytes += tap.bytes
			observeDur += sink.dur
			observed += int64(sink.n)
			r.check(tap.lines == bk.trials+1 && sink.est.Trials() == bk.trials,
				"%s seed %d: ledger has %d lines, stats %d trials, want %d trials",
				k.app, seed, tap.lines, sink.est.Trials(), bk.trials)
			runs = append(runs, campaignRun{k, seed, tap, shard, res})
		}
		pm := readMem()
		for i, bk := range batchKernels {
			for n := 0; n < firstProbes; n++ {
				d, err := firstRecordProbe(r, kernels[i], bk.trials, rng.Uint64(), probeReg)
				if err != nil {
					return err
				}
				perKernel[bk.app].firstMS = append(perKernel[bk.app].firstMS, d)
			}
		}
		// The probes' allocations and GC cycles are left out of the
		// per-trial figures by moving the baseline past them.
		after := readMem()
		mem.alloc += after.alloc - pm.alloc
		mem.gc += after.gc - pm.gc
	}
	r.recordMem(mem, trials)

	// The kernels differ by two orders of magnitude in trials/s, so the
	// rate and the medians are geometric means of per-kernel figures: no
	// kernel swamps the others. Rates come from the median campaign, so
	// one slow stretch of a run does not move them. The tail pools every
	// campaign, since the trial counts give the kernels about equal
	// campaign wall time.
	var rate, p50, first, all []float64
	for _, bk := range batchKernels {
		ks := perKernel[bk.app]
		rate = append(rate, float64(bk.trials)/median(ks.campMS)*1000)
		p50 = append(p50, median(ks.campMS))
		first = append(first, median(ks.firstMS))
		all = append(all, ks.campMS...)
		r.note("%s: %d campaigns of %d trials, %.1f trials/s, campaign median %.1f ms, first record median %.2f ms over %d campaigns and probes",
			bk.app, len(ks.campMS), bk.trials, rate[len(rate)-1], p50[len(p50)-1], first[len(first)-1], len(ks.firstMS))
	}
	r.e2e["throughput_per_s"] = geomean(rate)
	r.e2e["latency_ms_p50"] = geomean(p50)
	r.e2e["latency_ms_p75"] = quantile(all, 0.75)
	r.e2e["first_result_ms_p50"] = geomean(first)
	r.e2e["peak_rss_mb"] = median(peaks)
	r.note("%d trials in %d campaigns over %.2fs", trials, len(runs), busy.Seconds())

	workers := float64(sfi.ClampWorkers(0, batchKernels[0].trials))
	r.layers["sfi.campaign_ms"] = busy.Seconds() * 1000 / float64(len(runs))
	r.layers["sfi.trial_us"] = us(busy) * workers / float64(trials)
	r.layers["sfi.header_ms"] = median(headerMS)
	r.layers["sfi.ledger_bytes_per_trial"] = float64(ledgerBytes) / float64(trials)
	if writes > 0 {
		r.layers["sfi.ledger_write_us"] = us(writeDur) / float64(writes)
	}
	if observed > 0 {
		r.layers["stats.observe_us"] = us(observeDur) / float64(observed)
	}
	snap := r.reg.Snapshot()
	if n := counter(snap, "sfi.trials"); n > 0 {
		r.layers["sfi.fork_frac"] = float64(counter(snap, "sfi.restore.count")) / float64(n)
	}
	saved, replayed := counter(snap, "sfi.restore.saved_instrs"), counter(snap, "sfi.restore.replay_instrs")
	if saved+replayed > 0 {
		r.layers["sfi.replay_saved_frac"] = float64(saved) / float64(saved+replayed)
	}

	for _, cr := range runs {
		checkCampaignShard(r, cr)
	}
	if r.traced {
		return replayLedgers(r, kernels, runs)
	}
	return nil
}

// firstRecordProbe starts the campaign encore-sfi would run on k with
// this seed and cancels it once its first trial line is out. Up to that
// line it does what a full campaign does: golden run, ladder capture,
// every trial's plan, then trial 1 on one worker while the other runs a
// trial of its own. Its shard size is 1 (encore-serve's shard_size; the
// ledger does not depend on it), so the cancel, which takes effect at
// shard boundaries, spares all but the trials in flight. It returns the
// call → first trial line time in ms, and checks that the probe ended by
// its cancel with a header and a trial line.
func firstRecordProbe(r *runCtx, k *compiled, trials int, seed uint64, reg *obs.Registry) (float64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tap := &ledgerTap{onFirst: cancel}
	debug.FreeOSMemory()
	t0 := time.Now()
	s := r.span("bench/sfi.RunCampaign.first-record-probe")
	_, err := sfi.RunCampaign(k.res.Mod, k.res.Metas, k.outs, sfi.CampaignConfig{
		Trials: trials, Seed: seed, Dmax: sfiDmax, Checkpoints: sfiCheckpoints,
		Obs: reg, App: k.app, Regions: k.regions, Trace: obs.NewJSONLSink(tap),
		Stats: stats.New(), Ctx: ctx, ShardSize: 1,
	})
	s.End()
	if err != nil && !errors.Is(err, context.Canceled) {
		return 0, fmt.Errorf("%s: first-record probe: %w", k.app, err)
	}
	r.check(tap.lines >= 2 && !tap.firstAt.IsZero(),
		"%s seed %d: first-record probe wrote %d ledger lines, want a header and a trial", k.app, seed, tap.lines)
	return ms(tap.firstAt.Sub(t0)), nil
}

// checkCampaignShard re-runs the campaign's checked shard on the slowest,
// simplest path — reference engine, one worker, no checkpoints — and
// requires the timed ledger's header and lines there byte for byte.
func checkCampaignShard(r *runCtx, cr campaignRun) {
	var buf bytes.Buffer
	shard := cr.shard
	_, err := sfi.RunCampaign(cr.k.res.Mod, cr.k.res.Metas, cr.k.outs, sfi.CampaignConfig{
		Trials: cr.res.Trials, Seed: cr.seed, Dmax: sfiDmax, Checkpoints: 0, Workers: 1,
		Engine: interp.EngineRef, App: cr.k.app, Regions: cr.k.regions,
		Trace: obs.NewJSONLSink(&buf), Shard: &shard, Obs: obs.NewRegistry(),
	})
	want := append([]byte(nil), cr.tap.header...)
	for _, l := range cr.tap.kept {
		want = append(want, l...)
	}
	r.check(err == nil && bytes.Equal(buf.Bytes(), want),
		"%s seed %d shard %d/%d: reference re-run differs from the timed ledger (err %v)",
		cr.k.app, cr.seed, shard.Index, shard.Count, err)
}

// replayLedgers is the traced run's decomposition of per-trial interp
// work: a seeded sample of each kernel's timed ledger is rebuilt through
// the public interp calls, each one timed, and every replayed report must
// agree with its ledger record.
func replayLedgers(r *runCtx, kernels []*compiled, runs []campaignRun) error {
	const sample = 48
	rng := rand.New(rand.NewSource(int64(r.seed) ^ 0x5eed))
	var d decomp
	for _, k := range kernels {
		// The last timed campaign of this kernel supplies the records.
		var cr *campaignRun
		for j := range runs {
			if runs[j].k == k {
				cr = &runs[j]
			}
		}
		if cr == nil {
			continue
		}
		recs, err := campaignRecords(r, cr)
		if err != nil {
			return err
		}
		m, lad, golden, err := d.goldenAndLadder(r, k.res.Mod, k.res.Metas, k.outs)
		if err != nil {
			return fmt.Errorf("%s: %w", k.app, err)
		}
		for n := 0; n < sample; n++ {
			rec := recs[rng.Intn(len(recs))]
			d.trial(r, m, lad, k.outs, golden, rec)
		}
		m.Release()
	}
	d.report(r)
	return nil
}

// campaignRecords re-runs one timed campaign with its records retained
// (untimed) so the replay can sample every trial, and checks that the
// retained records give the timed ledger's checked lines.
func campaignRecords(r *runCtx, cr *campaignRun) ([]sfi.TrialRecord, error) {
	res, err := sfi.RunCampaign(cr.k.res.Mod, cr.k.res.Metas, cr.k.outs, sfi.CampaignConfig{
		Trials: cr.res.Trials, Seed: cr.seed, Dmax: sfiDmax, Checkpoints: sfiCheckpoints,
		App: cr.k.app, Regions: cr.k.regions, Ledger: true, Obs: obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	for i, line := range cr.tap.kept {
		raw, err := json.Marshal(sfi.TrialEnvelope{Type: sfi.TraceTrial, TrialRecord: res.Records[cr.shard.Lo+i]})
		r.check(err == nil && bytes.Equal(append(raw, '\n'), line), "%s: retained record %d differs from its ledger line", cr.k.app, cr.shard.Lo+i)
	}
	return res.Records, nil
}

// decomp accumulates the per-call timings of the ledger replay.
type decomp struct {
	predecode, newM, golden, capture []float64
	goldenInstrs                     int64
	goldenTime                       time.Duration
	restore, resume, checksum        []float64
	restoreWords, resumeInstrs       int64
	resumeTime                       time.Duration
	instrsPerTrial                   []float64
}

// goldenAndLadder builds one machine the way a campaign does, timing
// Predecode, New, the golden Run and the ladder capture.
func (d *decomp) goldenAndLadder(r *runCtx, mod *ir.Module, metas []interp.RegionMeta, outs []*ir.Global) (*interp.Machine, *interp.Ladder, uint64, error) {
	t0 := time.Now()
	s := r.span("bench/interp.Predecode")
	prog := interp.Predecode(mod)
	s.End()
	d.predecode = append(d.predecode, ms(time.Since(t0)))

	t0 = time.Now()
	s = r.span("bench/interp.New")
	m := interp.New(mod, interp.Config{Obs: r.reg})
	m.UseProgram(prog)
	m.SetRuntime(metas)
	s.End()
	d.newM = append(d.newM, us(time.Since(t0)))

	t0 = time.Now()
	s = r.span("bench/interp.Run")
	_, err := m.Run()
	s.End()
	gd := time.Since(t0)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("golden run: %w", err)
	}
	d.golden = append(d.golden, ms(gd))
	d.goldenTime += gd
	d.goldenInstrs += m.Count
	golden := m.Checksum(outs...)
	total := m.Count

	var lad *interp.Ladder
	if metas != nil {
		t0 = time.Now()
		s = r.span("bench/interp.RunWithSnapshots")
		_, lad, err = m.RunWithSnapshots(interp.LadderRungs(sfiCheckpoints, total))
		s.End()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("capture: %w", err)
		}
		d.capture = append(d.capture, ms(time.Since(t0)))
	}
	return m, lad, golden, nil
}

// trial replays one ledger record: Best → Restore → InjectFault → Resume
// → FaultReport → Checksum, and checks the outcome against the record.
func (d *decomp) trial(r *runCtx, m *interp.Machine, lad *interp.Ladder, outs []*ir.Global, golden uint64, rec sfi.TrialRecord) {
	plan := interp.FaultPlan{Mode: interp.CorruptOutput, InjectAt: rec.InjectAt, Bit: uint8(rec.Bit), DetectLatency: rec.Latency}
	s := r.span("bench/interp.Ladder.Best")
	snap := lad.Best(plan.InjectAt)
	s.End()

	var err error
	if snap != nil {
		t0 := time.Now()
		s = r.span("bench/interp.Restore")
		err = m.Restore(snap)
		s.End()
		d.restore = append(d.restore, us(time.Since(t0)))
		d.restoreWords += m.LastRestoreWords()
	}
	start := m.Count
	if snap == nil || err != nil {
		m.Reset()
		start = 0
	}
	s = r.span("bench/interp.InjectFault")
	m.InjectFault(plan)
	s.End()
	t0 := time.Now()
	s = r.span("bench/interp.Resume")
	if snap != nil && err == nil {
		_, err = m.Resume()
	} else {
		_, err = m.Run()
	}
	s.End()
	rd := time.Since(t0)
	d.resume = append(d.resume, us(rd))
	d.resumeTime += rd
	d.resumeInstrs += m.Count - start
	d.instrsPerTrial = append(d.instrsPerTrial, float64(m.Count-start))

	s = r.span("bench/interp.FaultReport")
	rep := m.FaultReport()
	s.End()
	t0 = time.Now()
	s = r.span("bench/interp.Checksum")
	match := err == nil && m.Checksum(outs...) == golden
	s.End()
	d.checksum = append(d.checksum, us(time.Since(t0)))

	got := classifyTrial(rep, err, match)
	r.check(got == rec.Outcome && rep.Injected == rec.Injected && (!rep.Injected || rep.Site.Count == rec.Count),
		"trial %d: replayed outcome %v (site %d) != ledger %v (site %d)", rec.Trial, got, rep.Site.Count, rec.Outcome, rec.Count)
}

// classifyTrial is the campaign's outcome rule, restated from its
// documented ledger semantics so the replay checks it independently.
func classifyTrial(rep interp.FaultReport, err error, match bool) sfi.Outcome {
	switch {
	case !rep.Injected:
		return sfi.NotInjected
	case err == interp.ErrDetectedUnrecoverable:
		return sfi.DetectedUnrecoverable
	case err != nil:
		return sfi.Crashed
	case match && rep.RolledBack:
		return sfi.Recovered
	case match:
		return sfi.Benign
	case rep.RolledBack:
		return sfi.RecoveredWrong
	}
	return sfi.SilentCorruption
}

func (d *decomp) report(r *runCtx) {
	set := func(name string, xs []float64) {
		if len(xs) > 0 {
			r.layers[name] = median(xs)
		}
	}
	set("interp.predecode_ms", d.predecode)
	set("interp.new_machine_us", d.newM)
	set("interp.golden_ms", d.golden)
	set("interp.capture_ms", d.capture)
	set("interp.restore_us", d.restore)
	set("interp.resume_us", d.resume)
	set("interp.checksum_us", d.checksum)
	set("interp.instrs_per_trial", d.instrsPerTrial)
	if d.goldenTime > 0 {
		r.layers["interp.golden_minstr_per_s"] = float64(d.goldenInstrs) / d.goldenTime.Seconds() / 1e6
	}
	if d.resumeTime > 0 {
		r.layers["interp.resume_minstr_per_s"] = float64(d.resumeInstrs) / d.resumeTime.Seconds() / 1e6
	}
	if n := len(d.restore); n > 0 {
		r.layers["interp.restore_words"] = float64(d.restoreWords) / float64(n)
	}
}

func counter(s *obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

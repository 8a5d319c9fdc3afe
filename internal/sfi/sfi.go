// Package sfi performs the statistical fault injection experiments of
// paper §4–5: the Monte-Carlo hardware-masking study that calibrates
// Figure 8's Masked segment, and end-to-end injection campaigns that
// exercise Encore's instrumented rollback recovery and validate the
// analytical coverage model.
//
// Substitution note (see DESIGN.md): the paper derives masking from SFI on
// a Verilog ARM926 RTL model. Lacking RTL, we inject bit flips into
// architectural state (the register file) during interpretation and apply
// a documented latch/propagation derating factor for the strikes that a
// gate-level model would absorb before they reach architectural state.
package sfi

import (
	"context"
	"fmt"
	"sync"
	"time"

	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/trace"
	"encore/internal/workpool"
)

// rng is the deterministic generator for fault plans.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// DefaultLatchFraction is the fraction of raw state-element strikes that
// latch and propagate to architecturally visible state. Gate-level SFI
// studies on the ARM926 class of cores (e.g. Blome et al., CASES 2006 —
// the model the paper itself uses) absorb roughly two thirds of strikes in
// combinational masking, clock gating, and microarchitecturally dead
// state; we fold that into a single documented derating constant.
const DefaultLatchFraction = 0.35

// MaskingConfig parametrizes the hardware-masking Monte Carlo.
type MaskingConfig struct {
	Trials        int
	Seed          uint64
	Bits          int     // datapath width to flip within (default 32)
	LatchFraction float64 // 0 selects DefaultLatchFraction
	Workers       int     // trial parallelism; normalized via ClampWorkers

	// Engine selects the interpreter engine the golden run and every
	// trial machine use. All engines produce bit-identical trial
	// outcomes; the choice only affects throughput.
	Engine interp.Engine

	// Obs selects the metrics registry for the "sfi/masking" span, the
	// per-outcome counters, and worker throughput. Nil selects
	// obs.Default().
	Obs *obs.Registry
	// Progress, when non-nil, is stepped once per completed trial. The
	// caller owns it and calls Finish.
	Progress *obs.Progress
}

// MaskingResult reports the masking study's outcome.
type MaskingResult struct {
	Trials      int
	ArchMasked  int // output identical to golden despite the strike
	ArchVisible int // output differed or the run failed
	NotInjected int // program finished before the strike's slot

	// MaskedRate is the overall fraction of raw transient events that are
	// masked: architecturally masked strikes plus the latch-derated ones.
	MaskedRate float64
	// ArchMaskedRate is the architectural-only masking fraction.
	ArchMaskedRate float64
}

// MeasureMasking runs the Monte-Carlo masking study on an uninstrumented
// module: random register-file bit flips at random dynamic instructions,
// classified by comparing final output with a golden run.
func MeasureMasking(build func() (*ir.Module, []*ir.Global), cfg MaskingConfig) (*MaskingResult, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 200
	}
	if cfg.Bits <= 0 {
		cfg.Bits = 32
	}
	if cfg.LatchFraction <= 0 {
		cfg.LatchFraction = DefaultLatchFraction
	}
	cfg.Workers = ClampWorkers(cfg.Workers, cfg.Trials)
	reg := obs.Or(cfg.Obs)
	sp := reg.Span("sfi/masking")
	defer sp.End()
	mod, outs := build()
	set := &machineSet{mod: mod, engine: cfg.Engine, prog: interp.Predecode(mod)}
	defer set.release()
	m := set.get()
	if _, err := m.Run(); err != nil {
		return nil, fmt.Errorf("sfi: golden run: %w", err)
	}
	golden := m.Checksum(outs...)
	total := m.Count
	set.put(m)

	// Pre-derive every trial's plan from the seed, then execute trials on
	// a bounded worker pool (each worker owns one machine); results are
	// order-independent counters.
	res := &MaskingResult{Trials: cfg.Trials}
	r := rng(cfg.Seed ^ 0xDEADBEEF)
	plans := make([]interp.FaultPlan, cfg.Trials)
	for t := range plans {
		plans[t] = interp.FaultPlan{
			Mode:          interp.CorruptRegFile,
			InjectAt:      r.intn(total),
			TargetReg:     int(r.intn(1 << 16)),
			Bit:           uint8(r.intn(int64(cfg.Bits))),
			DetectLatency: 1 << 60, // never "detected": raw strike study
		}
	}
	var mu sync.Mutex
	runTrials(set, 0, len(plans), cfg.Workers, 0, nil, reg, cfg.Progress, func(w *interp.Machine, t int) {
		w.Reset()
		w.InjectFault(plans[t])
		_, err := w.Run()
		rep := w.FaultReport()
		mu.Lock()
		defer mu.Unlock()
		switch {
		case !rep.Injected:
			res.NotInjected++
		case err != nil:
			res.ArchVisible++ // crash/trap: architecturally visible
		case w.Checksum(outs...) == golden:
			res.ArchMasked++
		default:
			res.ArchVisible++
		}
	})
	inj := res.ArchMasked + res.ArchVisible
	if inj > 0 {
		res.ArchMaskedRate = float64(res.ArchMasked) / float64(inj)
	}
	visible := (1 - res.ArchMaskedRate) * cfg.LatchFraction
	res.MaskedRate = 1 - visible
	reg.Add("sfi.masking.trials", int64(res.Trials))
	reg.Add("sfi.masking.arch_masked", int64(res.ArchMasked))
	reg.Add("sfi.masking.arch_visible", int64(res.ArchVisible))
	reg.Add("sfi.masking.not_injected", int64(res.NotInjected))
	return res, nil
}

// Outcome classifies one end-to-end fault injection trial.
type Outcome uint8

// Trial outcomes.
const (
	// NotInjected: the program completed before the fault's slot.
	NotInjected Outcome = iota
	// Benign: the detector never fired and the output still matched the
	// golden run (architecturally masked).
	Benign
	// Recovered: the detector fired, Encore rolled back, and the final
	// output matched the golden run.
	Recovered
	// DetectedUnrecoverable: the detector fired with no valid rollback
	// target (unprotected region, or the owning frame was gone).
	DetectedUnrecoverable
	// RecoveredWrong: rollback executed but the output still diverged
	// (the fault escaped the region before detection).
	RecoveredWrong
	// SilentCorruption: no detection and wrong output.
	SilentCorruption
	// Crashed: the run failed even after any recovery attempt.
	Crashed
	numOutcomes
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case NotInjected:
		return "not-injected"
	case Benign:
		return "benign"
	case Recovered:
		return "recovered"
	case DetectedUnrecoverable:
		return "detected-unrecoverable"
	case RecoveredWrong:
		return "recovered-wrong"
	case SilentCorruption:
		return "silent-corruption"
	case Crashed:
		return "crashed"
	}
	return "?"
}

// MarshalText implements encoding.TextMarshaler with the String names, so
// trace JSONL and report JSON carry stable outcome words rather than enum
// ordinals. Marshaling an out-of-range outcome is an error.
func (o Outcome) MarshalText() ([]byte, error) {
	s := o.String()
	if s == "?" {
		return nil, fmt.Errorf("sfi: cannot marshal invalid outcome %d", uint8(o))
	}
	return []byte(s), nil
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting exactly the
// names String produces.
func (o *Outcome) UnmarshalText(text []byte) error {
	name := string(text)
	for c := Outcome(0); c < numOutcomes; c++ {
		if c.String() == name {
			*o = c
			return nil
		}
	}
	return fmt.Errorf("sfi: unknown outcome %q", name)
}

// StatsSink receives a campaign's header and trial records in ledger
// order for online aggregation (internal/stats implements it). The
// contract mirrors the Trace stream: ObserveCampaign is called once
// after the golden run and before any trial, then ObserveTrial is
// called exactly once per executed trial in strictly increasing trial
// order, regardless of Workers, ShardSize, or Engine — so any
// deterministic accumulator fed through a StatsSink is bit-identical
// across those knobs. When both a Trace sink and a StatsSink are
// attached, each record reaches the StatsSink before its trace line is
// emitted (a reader of the trace never observes a record the stats have
// not folded yet).
type StatsSink interface {
	// ObserveCampaign delivers the campaign header.
	ObserveCampaign(meta CampaignMeta)
	// ObserveTrial delivers one trial record, in trial order.
	ObserveTrial(rec TrialRecord)
}

// CampaignConfig parametrizes an end-to-end injection campaign against an
// instrumented module.
type CampaignConfig struct {
	Trials  int
	Seed    uint64
	Bits    int   // datapath width (default 32)
	Dmax    int64 // maximum detection latency, uniform [0, Dmax]
	Workers int   // trial parallelism; normalized via ClampWorkers

	// Engine selects the interpreter engine the golden run and every
	// trial machine use for quiescent execution (the active phase of each
	// fault always runs on the reference loop). Campaign results and the
	// trial ledger are bit-identical across engines — the engine
	// equivalence tests pin that down — so the choice only affects trial
	// throughput.
	Engine interp.Engine

	// Checkpoints enables fork-from-snapshot trial execution: the golden
	// run captures this many evenly spaced machine snapshots in one pass
	// (interp.LadderRungs), and each trial restores the deepest snapshot
	// strictly before its InjectAt instead of re-executing the whole
	// golden prefix. Zero disables checkpointing (every trial replays
	// from Reset, the historical behavior); negative is an error, as is a
	// value exceeding the golden run's dynamic instruction count. Trial
	// outcomes, the ledger, stats, shard slices, and adaptive decisions
	// are bit-identical at any checkpoint count — TestCheckpointLedgerInvariant
	// pins that down — so the knob only affects throughput.
	Checkpoints int

	// Obs selects the metrics registry for the "sfi/campaign" span, the
	// "sfi.outcome.*" counters, and worker throughput. Nil selects
	// obs.Default().
	Obs *obs.Registry
	// Progress, when non-nil, is stepped once per completed trial. The
	// caller owns it and calls Finish.
	Progress *obs.Progress

	// App labels the campaign in the trace ledger's header record.
	App string
	// Regions is the per-region prediction table joined into the ledger
	// (idempotence class at the injection site, α predictions in the
	// header record). Optional; without it site regions carry no class.
	Regions []RegionInfo
	// Trace, when non-nil, receives one CampaignEnvelope (after the
	// golden run, before any trial) followed by exactly Trials
	// TrialEnvelope records emitted incrementally in trial order as the
	// completed prefix of the campaign grows — the stream is
	// deterministic given Seed regardless of Workers or ShardSize, and
	// its final bytes are identical to an end-of-campaign dump. The trial
	// loop itself only parks each record until the prefix reaches it;
	// emission happens on a separate lock so record IO never serializes
	// the trial hot path. A streamed record is not kept: set Ledger to
	// also get it in CampaignResult.Records.
	Trace *obs.EventSink
	// Ledger retains the per-trial records in CampaignResult.Records (for
	// in-process attribution). Without it (or Stop) Records is nil, even
	// when a Trace or Stats sink streams them, so a long streamed
	// campaign holds only the records still waiting for their turn.
	Ledger bool
	// Stats, when non-nil, receives the campaign header and then every
	// trial record in trial order (see StatsSink). Attaching a sink does
	// not change trial outcomes, the Records slice, or the Trace stream's
	// bytes — it only adds the ordered delivery.
	Stats StatsSink

	// Ctx, when non-nil, cancels the campaign cooperatively: once done,
	// no further trial shards are scheduled (in-flight shards finish),
	// no further ledger records are emitted, and RunCampaign returns the
	// partial result together with ctx's error. A nil Ctx never cancels.
	Ctx context.Context
	// ShardSize is the number of consecutive trials handed to a worker
	// per scheduling step (the workpool.Dispatch shard). Zero selects a
	// heuristic balancing queue traffic against cancellation/streaming
	// latency. Outcomes and the ledger are shard-size-invariant.
	ShardSize int

	// Shard, when non-nil, restricts execution to one Partition element
	// of the trial space: plans for all Trials are still derived from
	// the seed (so trial indices, sites, and latencies are global), but
	// only [Shard.Lo, Shard.Hi) executes, and only those records reach
	// Records, the Trace stream, and the StatsSink — as the exact bytes
	// the corresponding lines of a single-process run would carry. The
	// range is validated against (Trials, Seed, Shard.Count); a stale or
	// foreign range is an error, not a silent misexecution. Incompatible
	// with Stop (adaptive decisions need the global record stream).
	Shard *ShardRange
	// Stop, when non-nil, enables variance-aware adaptive stopping: the
	// campaign predicts each planned trial's strike region from one
	// hooked golden run, and at deterministic round boundaries skips
	// trials whose predicted region's recovery-rate Wilson interval has
	// already converged below Stop's target. Skipped trials execute
	// nothing and emit nothing; CampaignResult.Skipped counts them and
	// Records/Trace/Stats carry exactly the executed subset, in trial
	// order, identically across Workers/ShardSize/Engine. Implies record
	// retention (as if Ledger were set).
	Stop *Stopper
	// Prior seeds adaptive stopping with a previous campaign's per-region
	// tallies, keyed by region content hash (see PriorRegion). Regions
	// whose code is unchanged since the prior run start from its counts
	// — if the prior campaign converged them, they are never re-injected
	// — while changed regions (different hash) start cold. Ignored when
	// Stop is nil.
	Prior []PriorRegion
}

// CampaignResult aggregates trial outcomes.
type CampaignResult struct {
	Trials int
	// Executed counts the trials that actually ran; it equals Trials
	// unless the campaign ran one Shard of the trial space, adaptive
	// stopping (Stop) skipped converged trials, or the campaign's Ctx
	// canceled it mid-flight.
	Executed int
	// Skipped counts planned trials adaptive stopping elided because
	// their predicted region had already converged below the target
	// half-width. Trials - Executed - Skipped is the cancellation
	// remainder (zero for a completed run).
	Skipped int
	// Mispredicted counts executed trials whose golden-run region
	// prediction disagreed with the actual strike region. The region map
	// is exact for deterministic workloads, so this is expected to be
	// zero; a non-zero value only costs stopping efficiency, never
	// correctness of the emitted records.
	Mispredicted int
	Counts       [numOutcomes]int

	// SameInstance counts recovered trials whose rollback target was the
	// very region instance the fault struck (the case the paper's α model
	// credits).
	SameInstance int

	// Meta echoes the campaign's ledger header when the trial ledger was
	// enabled (a Trace or Stats sink, Ledger, or Stop), and Records holds
	// the per-trial entries in trial order when they were retained
	// (Ledger or Stop).
	Meta    *CampaignMeta
	Records []TrialRecord
}

// Rate returns the fraction of injected trials with the given outcome.
func (c *CampaignResult) Rate(o Outcome) float64 {
	injected := c.Trials - c.Counts[NotInjected]
	if injected <= 0 {
		return 0
	}
	return float64(c.Counts[o]) / float64(injected)
}

// RecoveredRate returns the fraction of injected faults fully recovered or
// benign — the survivable fraction.
func (c *CampaignResult) RecoveredRate() float64 {
	return c.Rate(Recovered) + c.Rate(Benign)
}

// RunCampaign injects cfg.Trials output-corrupting faults into the
// instrumented module, each with a uniform random site and a uniform
// random detection latency in [0, Dmax], and classifies every run against
// the golden checksum. Trials are scheduled as contiguous shards on a
// bounded worker pool (workpool.Dispatch); a canceled cfg.Ctx stops
// scheduling at shard granularity and RunCampaign returns the partial
// result with the context's error.
//
// RunCampaign is exactly NewTarget followed by Target.Run, both under one
// "sfi/campaign" span; callers that run many campaigns against one
// compiled module build the Target once and call Run per campaign.
func RunCampaign(mod *ir.Module, metas []interp.RegionMeta, outs []*ir.Global, cfg CampaignConfig) (*CampaignResult, error) {
	sp := obs.Or(cfg.Obs).Span("sfi/campaign")
	defer sp.End()
	t, err := NewTarget(mod, metas, outs, cfg.Engine, cfg.Checkpoints, sp)
	if err != nil {
		return nil, err
	}
	return t.run(cfg, sp)
}

// Target is the campaign-invariant half of an injection campaign against
// one instrumented module: the pre-decoded program, the golden run's
// output checksum and dynamic instruction count, and the checkpoint
// ladder, plus the adaptive region map once an adaptive campaign needed
// it. All of it is a deterministic function of (module, engine,
// checkpoint count), so one Target serves any number of campaigns —
// concurrently, too: Run only reads it (the region map is built once,
// under a sync.Once), and Restore only reads the ladder's snapshots.
type Target struct {
	mod         *ir.Module
	metas       []interp.RegionMeta
	outs        []*ir.Global
	engine      interp.Engine
	checkpoints int

	prog   *interp.Program
	golden uint64
	total  int64
	ladder *interp.Ladder

	rmOnce sync.Once
	rm     *trace.RegionMap
	rmErr  error
}

// NewTarget pre-decodes mod, runs it once on engine to fix the golden
// checksum over outs and the dynamic instruction total, and, when
// checkpoints > 0, captures a checkpoints-rung snapshot ladder in one
// more pass (see CampaignConfig.Checkpoints). The two runs are timed as
// the "golden" and "capture" children of parent (nil records nothing).
// Negative checkpoints, or more checkpoints than the golden run has
// instructions, are errors. The machines it builds are released before
// it returns.
func NewTarget(mod *ir.Module, metas []interp.RegionMeta, outs []*ir.Global, engine interp.Engine, checkpoints int, parent *obs.Span) (*Target, error) {
	if checkpoints < 0 {
		return nil, fmt.Errorf("sfi: negative checkpoint count %d (0 disables the ladder)", checkpoints)
	}
	t := &Target{
		mod: mod, metas: metas, outs: outs, engine: engine, checkpoints: checkpoints,
		prog: interp.Predecode(mod),
	}
	set := t.machines()
	defer set.release()
	sp := parent.Child("golden")
	m := set.get()
	_, err := m.Run()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("sfi: golden run: %w", err)
	}
	t.golden, t.total = m.Checksum(outs...), m.Count
	set.put(m)

	// Checkpoint ladder: one extra pass over the golden prefix captures
	// every snapshot; trials then fork from the nearest rung below their
	// injection point instead of replaying from instruction zero.
	if checkpoints > 0 {
		if int64(checkpoints) > t.total {
			return nil, fmt.Errorf("sfi: %d checkpoints exceed the golden run's %d dynamic instructions", checkpoints, t.total)
		}
		sp := parent.Child("capture")
		defer sp.End()
		_, lad, err := set.get().RunWithSnapshots(interp.LadderRungs(checkpoints, t.total))
		if err != nil {
			return nil, fmt.Errorf("sfi: checkpoint capture: %w", err)
		}
		t.ladder = lad
	}
	return t, nil
}

// Run executes one campaign against the target (see RunCampaign), timed
// as an "sfi/campaign" span whose "trials" child covers the trial loop
// (and, for the target's first adaptive campaign, whose "regionmap" child
// covers the hooked run that predicts each trial's strike region; later
// adaptive campaigns reuse that map). cfg.Engine and
// cfg.Checkpoints must equal the values the target was built with; a
// mismatch is an error rather than a silent rebuild.
func (tg *Target) Run(cfg CampaignConfig) (*CampaignResult, error) {
	sp := obs.Or(cfg.Obs).Span("sfi/campaign")
	defer sp.End()
	return tg.run(cfg, sp)
}

// regionMap returns the target's strike-region prediction map, recording
// it on first use under a "regionmap" child of sp: the map depends only
// on the module, so every adaptive campaign on the target shares it.
func (tg *Target) regionMap(sp *obs.Span) (*trace.RegionMap, error) {
	tg.rmOnce.Do(func() {
		rsp := sp.Child("regionmap")
		tg.rm, tg.rmErr = trace.RecordRegionMap(tg.mod, tg.metas, tg.prog)
		rsp.End()
	})
	return tg.rm, tg.rmErr
}

// machines returns a fresh machine set over the target's module,
// warm-starting from its ladder (if any).
func (tg *Target) machines() *machineSet {
	return &machineSet{mod: tg.mod, metas: tg.metas, engine: tg.engine, prog: tg.prog, ladder: tg.ladder}
}

func (tg *Target) run(cfg CampaignConfig, sp *obs.Span) (*CampaignResult, error) {
	if cfg.Engine != tg.engine {
		return nil, fmt.Errorf("sfi: campaign engine %s differs from the target's %s", cfg.Engine, tg.engine)
	}
	if cfg.Checkpoints != tg.checkpoints {
		return nil, fmt.Errorf("sfi: campaign wants %d checkpoints but the target captured %d", cfg.Checkpoints, tg.checkpoints)
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 200
	}
	if cfg.Bits <= 0 {
		cfg.Bits = 32
	}
	if cfg.Dmax < 0 {
		return nil, fmt.Errorf("sfi: negative Dmax %d (latency is sampled uniformly from [0, Dmax])", cfg.Dmax)
	}
	if cfg.Shard != nil && cfg.Stop != nil {
		return nil, fmt.Errorf("sfi: Shard and Stop cannot be combined (adaptive stopping decides from the global record stream)")
	}
	if cfg.Shard != nil {
		if err := cfg.Shard.validate(cfg.Trials, cfg.Seed); err != nil {
			return nil, err
		}
	}
	if cfg.Stop != nil {
		if cfg.Stop.Round < 0 {
			return nil, fmt.Errorf("sfi: negative adaptive round size %d", cfg.Stop.Round)
		}
		if cfg.Stop.TargetCI < 0 {
			return nil, fmt.Errorf("sfi: negative adaptive target CI %g", cfg.Stop.TargetCI)
		}
	}
	cfg.Workers = ClampWorkers(cfg.Workers, cfg.Trials)
	reg := obs.Or(cfg.Obs)
	total, ladder, outs, golden := tg.total, tg.ladder, tg.outs, tg.golden
	set := tg.machines()
	defer set.release()

	res := &CampaignResult{Trials: cfg.Trials}
	r := rng(cfg.Seed ^ 0xFA0C7)
	plans := make([]interp.FaultPlan, cfg.Trials)
	for t := range plans {
		plans[t] = interp.FaultPlan{
			Mode:          interp.CorruptOutput,
			InjectAt:      r.intn(total),
			Bit:           uint8(r.intn(int64(cfg.Bits))),
			DetectLatency: r.intn(cfg.Dmax + 1),
		}
	}
	// Execution range: the whole plan table, or one Partition element.
	// Plans are always derived for the full trial space — that is what
	// makes a shard's records byte-identical to the single-process run's.
	lo, hi := 0, cfg.Trials
	if cfg.Shard != nil {
		lo, hi = cfg.Shard.Lo, cfg.Shard.Hi
	}
	// Trial ledger: records are filed by trial index (not completion
	// order) — into a preallocated slice when they are retained, otherwise
	// into pending until the emitter streams them — so the emitted stream
	// is deterministic given the seed regardless of worker interleaving.
	// Adaptive stopping implies retention: its round decisions fold the
	// executed records.
	keep := cfg.Ledger || cfg.Stop != nil
	ledger := keep || cfg.Trace != nil || cfg.Stats != nil
	var (
		classOf map[int]string
		pending map[int]TrialRecord
	)
	if ledger {
		if keep {
			res.Records = make([]TrialRecord, cfg.Trials)
		} else {
			pending = map[int]TrialRecord{}
		}
		classOf = make(map[int]string, len(cfg.Regions))
		for _, ri := range cfg.Regions {
			classOf[ri.ID] = ri.Class
		}
		meta := &CampaignMeta{
			App: cfg.App, Trials: cfg.Trials, Seed: cfg.Seed,
			Dmax: cfg.Dmax, Bits: cfg.Bits, GoldenInstrs: total,
			Regions: cfg.Regions,
		}
		for _, ri := range cfg.Regions {
			if ri.Selected {
				meta.PredCoverage += ri.DynFrac * ri.Alpha
			}
		}
		res.Meta = meta
		// The header depends only on the compile and the golden run, so
		// it leads the stream; trial records then flow incrementally as
		// the completed prefix grows (see emitDone below). Stats see it
		// first so a snapshot taken between header and first trial
		// already carries the prediction table.
		if cfg.Stats != nil {
			cfg.Stats.ObserveCampaign(*meta)
		}
		if cfg.Trace != nil {
			cfg.Trace.Emit(CampaignEnvelope{Type: TraceCampaign, CampaignMeta: *meta})
		}
	}
	// Incremental trial-order emission: done[t] marks finished trials
	// (guarded by mu with the counters); a worker that completes a trial
	// then drains the contiguous done prefix into the sinks under emitMu,
	// so exactly one emitter runs at a time, records leave in trial
	// order, and sink IO never blocks other workers' trial loops. The
	// same drain feeds the StatsSink (before the trace line, per the
	// StatsSink contract), which is what makes online estimators
	// bit-identical across worker/shard/engine shapes.
	// Adaptive stopping: predict every planned trial's strike region from
	// one hooked golden run, so round decisions can skip trials aimed at
	// already-converged regions without executing them.
	var stop *stopRun
	if cfg.Stop != nil {
		rm, err := tg.regionMap(sp)
		if err != nil {
			return nil, fmt.Errorf("sfi: %w", err)
		}
		stop = newStopRun(cfg.Stop, plans, rm, cfg.Regions, cfg.Prior, cfg.Trials)
	}
	var (
		mu     sync.Mutex
		emitMu sync.Mutex
		done   []bool
		cursor = lo
		batch  []TrialRecord // the emitter's drain buffer, guarded by emitMu
	)
	if cfg.Trace != nil || cfg.Stats != nil {
		done = make([]bool, cfg.Trials)
	}
	emitDone := func() {
		emitMu.Lock()
		defer emitMu.Unlock()
		for {
			mu.Lock()
			elo := cursor
			ehi := elo
			for ehi < len(done) && done[ehi] {
				ehi++
			}
			cursor = ehi
			batch = batch[:0]
			for t := elo; t < ehi; t++ {
				switch {
				case stop != nil && stop.skip[t]:
					// Skipped trials leave no record anywhere.
				case pending != nil:
					batch = append(batch, pending[t])
					delete(pending, t)
				default:
					batch = append(batch, res.Records[t])
				}
			}
			mu.Unlock()
			if ehi == elo {
				return
			}
			for i := range batch {
				if cfg.Stats != nil {
					cfg.Stats.ObserveTrial(batch[i])
				}
				if cfg.Trace != nil {
					cfg.Trace.Emit(TrialEnvelope{Type: TraceTrial, TrialRecord: batch[i]})
				}
			}
		}
	}
	var cancel <-chan struct{}
	if cfg.Ctx != nil {
		cancel = cfg.Ctx.Done()
	}
	// Fork-from-snapshot bookkeeping: restores counts trials served from
	// the ladder, replay_instrs the short deltas actually re-executed to
	// reach InjectAt, and saved_instrs the golden-prefix instructions the
	// restores avoided re-running.
	restores := reg.Counter("sfi.restore.count")
	replayInstrs := reg.Counter("sfi.restore.replay_instrs")
	savedInstrs := reg.Counter("sfi.restore.saved_instrs")
	// Golden convergence: converged counts trials that ended at the first
	// ladder rung where their state rejoined the golden run, convSaved the
	// golden-suffix instructions they did not replay, and convChecks the
	// state comparisons made (failed ones included).
	converged := reg.Counter("sfi.converge.count")
	convSaved := reg.Counter("sfi.converge.saved_instrs")
	convChecks := reg.Counter("sfi.converge.checks")
	// sfi.trials advances per executed trial (not at the end), so a
	// progress note can put the converged count over the trials run.
	trials := reg.Counter("sfi.trials")
	doTrial := func(w *interp.Machine, t int) {
		var err error
		if snap := ladder.Best(plans[t].InjectAt); snap != nil && w.Restore(snap) == nil {
			// Fork: rewind to the deepest snapshot strictly before the
			// injection point, arm the fault, and replay only the delta.
			// The restored state is snapshot-exact (instance sequencing,
			// region buffers, counters), so the trial's record is
			// byte-identical to the replay-everything path's.
			w.InjectFault(plans[t])
			w.ConvergeOn(ladder)
			_, err = w.Resume()
			restores.Add(1)
			replayInstrs.Add(plans[t].InjectAt - snap.Count())
			savedInstrs.Add(snap.Count())
		} else {
			w.Reset()
			w.InjectFault(plans[t])
			w.ConvergeOn(ladder)
			_, err = w.Run()
		}
		rep := w.FaultReport()
		// A converged trial stopped mid-run in a state equal to a golden
		// rung's, so its output is the golden output and its final count
		// the one the full run reaches; its machine holds no final state
		// to checksum.
		cv := w.ConvergeReport()
		match := cv.Converged || err == nil && w.Checksum(outs...) == golden
		final := w.Count
		if cv.Converged {
			final = cv.Final
			converged.Add(1)
			convSaved.Add(cv.Final - w.Count)
		}
		convChecks.Add(int64(cv.Checks))
		trials.Add(1)
		o := classify(rep, err, match)
		mu.Lock()
		res.Executed++
		res.Counts[o]++
		if o == Recovered && rep.SameInstance {
			res.SameInstance++
		}
		if ledger {
			rec := makeRecord(t, plans[t], rep, o, err, total, final, classOf)
			if pending != nil {
				pending[t] = rec
			} else {
				res.Records[t] = rec
			}
		}
		if done != nil {
			done[t] = true
		}
		mu.Unlock()
		if done != nil {
			emitDone()
		}
	}
	tsp := sp.Child("trials")
	defer tsp.End()
	if stop == nil {
		runTrials(set, lo, hi, cfg.Workers, cfg.ShardSize, cancel, reg, cfg.Progress, doTrial)
	} else {
		// Round loop: pin the skip set from completed-round tallies, run
		// the round (skips cost a scheduling step, not an execution), then
		// fold its records and re-score convergence at the barrier. Every
		// decision input is a deterministic function of (seed, prior,
		// policy), so the executed subset — and therefore the ledger — is
		// identical across worker counts and engines.
		for rlo := lo; rlo < hi; rlo += stop.round {
			if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
				break
			}
			rhi := rlo + stop.round
			if rhi > hi {
				rhi = hi
			}
			stop.decide(rlo, rhi)
			runTrials(set, rlo, rhi, cfg.Workers, cfg.ShardSize, cancel, reg, cfg.Progress, func(w *interp.Machine, t int) {
				if stop.skip[t] {
					if done != nil {
						mu.Lock()
						done[t] = true
						mu.Unlock()
						emitDone()
					}
					return
				}
				doTrial(w, t)
				stop.exec[t] = true
			})
			stop.fold(rlo, rhi, res.Records)
		}
		res.Skipped = stop.skipped
		res.Mispredicted = stop.mispred
	}
	// A shard's Records cover only its range; an adaptive campaign's only
	// the executed subset. Both stay in trial order.
	if res.Records != nil {
		switch {
		case cfg.Shard != nil:
			res.Records = res.Records[lo:hi:hi]
		case stop != nil:
			kept := res.Records[:0]
			for t := range res.Records {
				if stop.exec[t] {
					kept = append(kept, res.Records[t])
				}
			}
			res.Records = kept
		}
	}
	for o := Outcome(0); o < numOutcomes; o++ {
		reg.Add("sfi.outcome."+o.String(), int64(res.Counts[o]))
	}
	if stop != nil {
		reg.Add("sfi.skipped", int64(res.Skipped))
	}
	reg.Add("sfi.recovered.same_instance", int64(res.SameInstance))
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		return res, cfg.Ctx.Err()
	}
	return res, nil
}

// machineSet builds and owns the machines of one campaign phase (a
// target's golden and capture runs, one Run's trial workers, or one
// masking study). All of them share one pre-decoded Program. get reuses a machine put
// back earlier in the phase and builds a new one otherwise; release hands
// every machine the set ever built back to interp's image pool, so a
// finished campaign leaves no memory image for the garbage collector and
// the next campaign's machines start on recycled, already-zeroed images.
type machineSet struct {
	mod    *ir.Module
	metas  []interp.RegionMeta
	engine interp.Engine
	prog   *interp.Program
	// ladder, when set, warm-starts freshly built machines: they come out
	// of get pre-restored to the deepest snapshot, so a worker's first
	// fork pays a dirty-delta restore instead of a cold image.
	ladder *interp.Ladder

	mu   sync.Mutex
	all  []*interp.Machine // every machine built; release frees them
	idle []*interp.Machine // put back and ready for reuse
}

func (s *machineSet) get() *interp.Machine {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		return w
	}
	s.mu.Unlock()
	w := interp.New(s.mod, interp.Config{Engine: s.engine})
	w.UseProgram(s.prog)
	if s.metas != nil {
		w.SetRuntime(s.metas)
	}
	if d := s.ladder.Deepest(); d != nil {
		// Warm start: pre-load the deepest snapshot so the machine's
		// frames, register slices, and memory deltas are materialized
		// before its first trial. A failure here is harmless — the trial
		// loop Resets and replays from scratch.
		_ = w.Restore(d)
	}
	s.mu.Lock()
	s.all = append(s.all, w)
	s.mu.Unlock()
	return w
}

func (s *machineSet) put(w *interp.Machine) {
	s.mu.Lock()
	s.idle = append(s.idle, w)
	s.mu.Unlock()
}

// release returns every machine the set built to interp's image pool.
// No machine of the set may be in use.
func (s *machineSet) release() {
	for _, w := range s.all {
		w.Release()
	}
	s.all, s.idle = nil, nil
}

// EnvWorkers returns the ENCORE_WORKERS environment override as a worker
// count, or 0 when the variable is unset, malformed, or non-positive (the
// "no opinion" value every consumer feeds through ClampWorkers). It is the
// shared knob behind the compile fan-out (internal/core), the experiment
// harness's per-spec pool, and encore-bench.
func EnvWorkers() int { return workpool.FromEnv() }

// ClampWorkers normalizes a requested trial-parallelism value: zero or
// negative selects runtime.GOMAXPROCS(0), a request above the trial count
// is capped at it (extra workers would only idle), and the floor is one.
// encore-sfi's -workers flag, the Workers config fields, and runTrials all
// degrade through this one helper (now shared tree-wide via
// internal/workpool), so a pathological request behaves exactly like the
// serial path instead of erroring or deadlocking.
func ClampWorkers(workers, trials int) int { return workpool.Clamp(workers, trials) }

// shardSize normalizes a requested trials-per-shard value: zero or
// negative selects a heuristic that gives each worker several shards
// (smoothing uneven trial costs and keeping cancellation/streaming
// latency low) while bounding queue traffic, clamped to [1, 64].
func shardSize(size, trials, workers int) int {
	if size > 0 {
		return size
	}
	size = trials / (workers * 8)
	if size > 64 {
		size = 64
	}
	if size < 1 {
		size = 1
	}
	return size
}

// runTrials executes fn over the trial indices [lo, hi), scheduled as
// contiguous shards (workpool.Dispatch) on a bounded worker pool, each
// worker leasing a private machine (machines are not goroutine-safe).
// Trial plans are pre-derived and results are collected positionally, so
// every (workers, shard) shape is identical to the serial order. The
// worker count is normalized via ClampWorkers; a single worker runs
// inline with no goroutine or channel overhead. A closed cancel channel
// (may be nil) stops scheduling at shard granularity. Each worker's
// machine reports into reg (folded at the Reset boundary between
// trials), its end-of-run throughput lands in the
// "sfi.worker.trials_per_sec" histogram, and prog (may be nil) is
// stepped once per completed trial.
func runTrials(set *machineSet, lo, hi, workers, shard int, cancel <-chan struct{}, reg *obs.Registry, prog *obs.Progress, fn func(w *interp.Machine, t int)) {
	trials := hi - lo
	workers = ClampWorkers(workers, trials)
	shard = shardSize(shard, trials, workers)
	rate := reg.Histogram("sfi.worker.trials_per_sec")
	workpool.Dispatch(trials, shard, workers, cancel, func(_ int, pull func() (workpool.Shard, bool)) {
		w := set.get()
		w.AttachObs(reg)
		start := time.Now()
		n := 0
		for sh, ok := pull(); ok; sh, ok = pull() {
			for t := sh.Lo; t < sh.Hi; t++ {
				fn(w, lo+t)
				prog.Step(1)
				n++
			}
		}
		if el := time.Since(start).Seconds(); el > 0 && n > 0 {
			rate.Observe(int64(float64(n) / el))
		}
		w.AttachObs(nil)
		set.put(w)
	})
}

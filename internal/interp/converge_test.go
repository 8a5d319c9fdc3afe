package interp_test

import (
	"errors"
	"reflect"
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/workload"
)

// convergeFixture compiles a workload and captures its golden run's
// ladder.
type convergeFixture struct {
	res    *core.Result
	outs   []*ir.Global
	lad    *interp.Ladder
	total  int64
	golden uint64
}

func newConvergeFixture(t *testing.T, name string, rungs int) *convergeFixture {
	t.Helper()
	sp, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(res.Mod, interp.Config{})
	defer m.Release()
	m.SetRuntime(res.Metas)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	f := &convergeFixture{res: res, outs: art.Outputs, total: m.Count, golden: m.Checksum(art.Outputs...)}
	if _, f.lad, err = m.RunWithSnapshots(interp.LadderRungs(rungs, f.total)); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *convergeFixture) machine(cfg interp.Config) *interp.Machine {
	m := interp.New(f.res.Mod, cfg)
	m.SetRuntime(f.res.Metas)
	return m
}

// plan is the i-th of n output-corrupting faults spread over the run.
func (f *convergeFixture) plan(i, n int64) interp.FaultPlan {
	at := 1 + i*(f.total-1)/n
	return interp.FaultPlan{
		Mode: interp.CorruptOutput, InjectAt: at, Bit: uint8((at*7 + 3) % 32), DetectLatency: at % 61,
	}
}

// TestConvergeMatchesFullRun is the convergence oracle at the machine
// level: a forked, faulted trial armed with ConvergeOn either runs to the
// very end of the full trial or converges, and then its return value,
// fault report and final count are the full run's, whose output is the
// golden output.
func TestConvergeMatchesFullRun(t *testing.T) {
	for _, name := range []string{"rawcaudio", "175.vpr"} {
		f := newConvergeFixture(t, name, 16)
		full := f.machine(interp.Config{})
		fork := f.machine(interp.Config{})
		converged := 0
		const n = 60
		for i := int64(0); i < n; i++ {
			p := f.plan(i, n)
			full.Reset()
			full.InjectFault(p)
			fret, ferr := full.Run()
			snap := f.lad.Best(p.InjectAt)
			if snap == nil {
				continue
			}
			if err := fork.Restore(snap); err != nil {
				t.Fatal(err)
			}
			fork.InjectFault(p)
			fork.ConvergeOn(f.lad)
			rret, rerr := fork.Resume()
			if !reflect.DeepEqual(full.FaultReport(), fork.FaultReport()) {
				t.Fatalf("%s inject@%d: fault reports differ:\nfull: %+v\nfork: %+v", name, p.InjectAt, full.FaultReport(), fork.FaultReport())
			}
			if (ferr == nil) != (rerr == nil) || fret != rret {
				t.Fatalf("%s inject@%d: full (%d, %v) vs fork (%d, %v)", name, p.InjectAt, fret, ferr, rret, rerr)
			}
			cv := fork.ConvergeReport()
			if !cv.Converged {
				if fork.Count != full.Count || fork.Checksum(f.outs...) != full.Checksum(f.outs...) {
					t.Fatalf("%s inject@%d: unconverged fork ends unlike the full run", name, p.InjectAt)
				}
				continue
			}
			converged++
			if cv.Final != full.Count || cv.Final != f.total+cv.Delta || full.Checksum(f.outs...) != f.golden {
				t.Fatalf("%s inject@%d: converged with final %d (Δ %d), full run ends at %d",
					name, p.InjectAt, cv.Final, cv.Delta, full.Count)
			}
			if cv.Delta != full.FaultReport().RollbackDistance+3 || cv.Checks < 1 || fork.Count >= cv.Final {
				t.Fatalf("%s inject@%d: implausible report %+v", name, p.InjectAt, cv)
			}
		}
		full.Release()
		fork.Release()
		if converged == 0 {
			t.Errorf("%s: no trial converged", name)
		}
	}
}

// TestConvergeBudget: a run converges only when the full run would end
// inside its budget. With the budget between the golden total and the
// shifted end total + Δ the converging fork traps exactly as the full run
// does; at total + Δ both complete.
func TestConvergeBudget(t *testing.T) {
	f := newConvergeFixture(t, "175.vpr", 16)
	probe := f.machine(interp.Config{})
	defer probe.Release()
	var p interp.FaultPlan
	var delta int64
	for i := int64(0); i < 60 && delta == 0; i++ {
		p = f.plan(i, 60)
		snap := f.lad.Best(p.InjectAt)
		if snap == nil {
			continue
		}
		if err := probe.Restore(snap); err != nil {
			t.Fatal(err)
		}
		probe.InjectFault(p)
		probe.ConvergeOn(f.lad)
		if _, err := probe.Resume(); err == nil && probe.ConvergeReport().Converged {
			delta = probe.ConvergeReport().Delta
		}
	}
	if delta < 2 {
		t.Fatal("no converging trial with a usable Δ")
	}
	for _, tc := range []struct {
		budget int64
		trap   bool
	}{
		{f.total + 1, true},
		{f.total + delta - 1, true},
		{f.total + delta, false},
	} {
		full := f.machine(interp.Config{MaxInstrs: tc.budget})
		full.InjectFault(p)
		fret, ferr := full.Run()
		fork := f.machine(interp.Config{MaxInstrs: tc.budget})
		if err := fork.Restore(f.lad.Best(p.InjectAt)); err != nil {
			t.Fatal(err)
		}
		fork.InjectFault(p)
		fork.ConvergeOn(f.lad)
		rret, rerr := fork.Resume()
		cv := fork.ConvergeReport()
		switch {
		case errors.Is(ferr, interp.ErrBudget) != tc.trap:
			t.Errorf("budget %d: full run error %v, want trap=%v", tc.budget, ferr, tc.trap)
		case tc.trap && (cv.Converged || rerr == nil || rerr.Error() != ferr.Error() || fork.Count != full.Count):
			t.Errorf("budget %d: fork (converged %v, count %d, %v) differs from the trapping full run (count %d, %v)",
				tc.budget, cv.Converged, fork.Count, rerr, full.Count, ferr)
		case !tc.trap && (!cv.Converged || rerr != nil || rret != fret || cv.Final != full.Count):
			t.Errorf("budget %d: fork %+v (%v) vs full run count %d (%v)", tc.budget, cv, rerr, full.Count, ferr)
		}
		if !reflect.DeepEqual(full.FaultReport(), fork.FaultReport()) {
			t.Errorf("budget %d: fault reports differ", tc.budget)
		}
		full.Release()
		fork.Release()
	}
}

// TestConvergeOracleEngines: the reference engine and profiled machines
// never converge — they are the run-to-completion oracles — and neither
// does a machine whose memory geometry differs from the ladder's.
func TestConvergeOracleEngines(t *testing.T) {
	f := newConvergeFixture(t, "rawcaudio", 16)
	for _, cfg := range []interp.Config{{Engine: interp.EngineRef}, {Profile: true}, {MemWords: 1 << 21}} {
		m := f.machine(cfg)
		for i := int64(0); i < 20; i++ {
			p := f.plan(i, 20)
			m.Reset()
			m.InjectFault(p)
			m.ConvergeOn(f.lad)
			m.Run()
			if cv := m.ConvergeReport(); cv != (interp.ConvergeReport{}) {
				t.Fatalf("%+v inject@%d: report %+v, want none", cfg, p.InjectAt, cv)
			}
		}
		m.Release()
	}
}

package sfi

import (
	"bytes"
	"strings"
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/obs"
	"encore/internal/workload"
)

// compiled builds and compiles one workload for campaign tests.
func compiled(t *testing.T, name string) (*core.Result, *workload.Artifact) {
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
	return res, art
}

// TestTargetRunMatchesRunCampaign locks the NewTarget/Run split: a
// campaign run against a prebuilt target — the first and a repeated Run
// alike — produces the ledger bytes and counts RunCampaign does, across
// workloads, engines and checkpoint counts.
func TestTargetRunMatchesRunCampaign(t *testing.T) {
	for _, name := range []string{"rawcaudio", "175.vpr", "g721encode"} {
		res, art := compiled(t, name)
		for _, eng := range []interp.Engine{interp.EngineCompiled, interp.EngineRef} {
			for _, k := range []int{0, 16} {
				cfg := func(buf *bytes.Buffer) CampaignConfig {
					return CampaignConfig{
						Trials: 40, Seed: 5, Dmax: 100, App: name, Engine: eng, Checkpoints: k,
						Trace: obs.NewJSONLSink(buf), Obs: obs.NewRegistry(),
					}
				}
				var want bytes.Buffer
				ref, err := RunCampaign(res.Mod, res.Metas, art.Outputs, cfg(&want))
				if err != nil {
					t.Fatal(err)
				}
				tg, err := NewTarget(res.Mod, res.Metas, art.Outputs, eng, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				for run := 0; run < 2; run++ {
					var got bytes.Buffer
					out, err := tg.Run(cfg(&got))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) || out.Counts != ref.Counts {
						t.Fatalf("%s/%s/ckpt%d run %d: Target.Run ledger differs from RunCampaign", name, eng, k, run)
					}
				}
			}
		}
	}
}

// TestTargetRunRejectsMismatch checks that a target refuses a campaign
// whose engine or checkpoint count differs from the ones it was built
// with.
func TestTargetRunRejectsMismatch(t *testing.T) {
	res, art := compiled(t, "rawcaudio")
	tg, err := NewTarget(res.Mod, res.Metas, art.Outputs, interp.EngineCompiled, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg  CampaignConfig
		want string
	}{
		{CampaignConfig{Trials: 5, Engine: interp.EngineRef, Checkpoints: 4}, "engine"},
		{CampaignConfig{Trials: 5, Engine: interp.EngineCompiled, Checkpoints: 8}, "checkpoints"},
	} {
		c.cfg.Obs = obs.NewRegistry()
		if _, err := tg.Run(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Run(%+v) = %v, want an error naming %s", c.cfg, err, c.want)
		}
	}
}

// TestCampaignSpans checks the campaign span tree: golden, capture and
// trials under sfi/campaign for RunCampaign; only trials for Target.Run,
// whose golden run and capture happened once in NewTarget.
func TestCampaignSpans(t *testing.T) {
	res, art := compiled(t, "rawcaudio")
	reg := obs.NewRegistry()
	cfg := CampaignConfig{Trials: 10, Seed: 1, Dmax: 100, Checkpoints: 4, Obs: reg}
	if _, err := RunCampaign(res.Mod, res.Metas, art.Outputs, cfg); err != nil {
		t.Fatal(err)
	}
	tg, err := NewTarget(res.Mod, res.Metas, art.Outputs, cfg.Engine, cfg.Checkpoints, reg.Span("target"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tg.Run(cfg); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, sp := range reg.Snapshot().Spans {
		counts[sp.Name] = sp.Count
	}
	for path, want := range map[string]int64{
		"sfi/campaign":         2,
		"sfi/campaign/golden":  1,
		"sfi/campaign/capture": 1,
		"sfi/campaign/trials":  2,
		"target/golden":        1,
		"target/capture":       1,
	} {
		if counts[path] != want {
			t.Errorf("span %s recorded %d times, want %d (all: %v)", path, counts[path], want, counts)
		}
	}
}

// TestTargetRegionMapCached: the adaptive region map is a function of
// the target, so only its first adaptive Run records it — a second Run
// opens no "regionmap" span and streams the same ledger bytes.
func TestTargetRegionMapCached(t *testing.T) {
	res, art := compiled(t, "175.vpr")
	tg, err := NewTarget(res.Mod, res.Metas, art.Outputs, interp.EngineCompiled, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ledgers [2]bytes.Buffer
	for run := range ledgers {
		reg := obs.NewRegistry()
		if _, err := tg.Run(CampaignConfig{
			Trials: 120, Seed: 9, Dmax: 100, Checkpoints: 16, Obs: reg,
			Stop: &Stopper{TargetCI: 0.12}, Trace: obs.NewJSONLSink(&ledgers[run]),
		}); err != nil {
			t.Fatal(err)
		}
		var maps int64
		for _, sp := range reg.Snapshot().Spans {
			if sp.Name == "sfi/campaign/regionmap" {
				maps = sp.Count
			}
		}
		if want := int64(1 - run); maps != want {
			t.Errorf("run %d recorded the region map %d times, want %d", run, maps, want)
		}
	}
	if !bytes.Equal(ledgers[0].Bytes(), ledgers[1].Bytes()) {
		t.Error("second adaptive run's ledger differs from the first's")
	}
}

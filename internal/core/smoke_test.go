package core

import (
	"testing"

	"encore/internal/interp"
	"encore/internal/workload"
)

// TestPipelineSmoke compiles every registered workload with the default
// configuration and checks the basic invariants: the instrumented program
// still runs, produces the same output as the baseline, and overhead stays
// within a loose bound of the budget.
func TestPipelineSmoke(t *testing.T) {
	for _, sp := range workload.All() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			// Golden run on a fresh, uninstrumented build.
			base := sp.Build()
			bm := interp.New(base.Mod, interp.Config{})
			if _, err := bm.Run(); err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			golden := bm.Checksum(base.Outputs...)
			if bm.BaseCount < 1000 {
				t.Errorf("workload too small: %d dynamic instructions", bm.BaseCount)
			}

			art := sp.Build()
			res, err := Compile(art.Mod, DefaultConfig())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			m := interp.New(res.Mod, interp.Config{})
			m.SetRuntime(res.Metas)
			if _, err := m.Run(); err != nil {
				t.Fatalf("instrumented run: %v", err)
			}
			if got := m.Checksum(art.Outputs...); got != golden {
				t.Errorf("instrumented output differs: golden %x, got %x", golden, got)
			}
			if res.MeasuredOverhead > 0.35 {
				t.Errorf("overhead %.1f%% exceeds loose bound", res.MeasuredOverhead*100)
			}
			cc := res.ClassCounts()
			if cc.Total() == 0 {
				t.Errorf("no regions formed")
			}
			t.Logf("regions=%d idem=%d nonidem=%d unknown=%d overhead=%.2f%% est=%.2f%% baseInstrs=%d",
				cc.Total(), cc.Idempotent, cc.NonIdempotent, cc.Unknown,
				res.MeasuredOverhead*100, res.EstOverhead*100, res.BaselineInstrs)
		})
	}
}

// TestRegionHashesCachedPerResult checks that RegionCoverages' cached
// region hashes equal a fresh regionHash of every region at every dmax,
// and that two compiles of one workload agree on them.
func TestRegionHashesCachedPerResult(t *testing.T) {
	sp, err := workload.ByName("175.vpr")
	if err != nil {
		t.Fatal(err)
	}
	var first []RegionCoverage
	for build := 0; build < 2; build++ {
		res, err := Compile(sp.Build().Mod, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, dmax := range []float64{10, 100, 1000} {
			rcs := res.RegionCoverages(dmax)
			if len(rcs) != len(res.Regions) || len(rcs) == 0 {
				t.Fatalf("dmax %v: %d coverage rows for %d regions", dmax, len(rcs), len(res.Regions))
			}
			for i, rc := range rcs {
				if want := regionHash(res.Regions[i]); rc.Hash != want {
					t.Fatalf("build %d dmax %v region %d: hash %s, fresh %s", build, dmax, rc.ID, rc.Hash, want)
				}
				if first != nil && rc.Hash != first[i].Hash {
					t.Fatalf("region %d hash differs between compiles", rc.ID)
				}
			}
			first = rcs
		}
	}
}

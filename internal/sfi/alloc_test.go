// The race detector makes sync.Pool drop a random share of Puts, so
// image recycling — and this allocation bound — only holds without it.

//go:build !race

package sfi

import (
	"runtime"
	"testing"

	"encore/internal/obs"
)

// TestCampaignAllocation is the regression test for machine-image
// recycling: every machine a campaign builds is released to the
// interpreter's image pool when the campaign returns, so back-to-back
// campaigns reuse zeroed images instead of allocating a fresh 8 MiB
// image per machine. 100 campaigns must average under 4 MiB each.
func TestCampaignAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("100 campaigns")
	}
	res, art := compiled(t, "175.vpr")
	cfg := CampaignConfig{Trials: 50, Seed: 1, Dmax: 100, Checkpoints: 16, Obs: obs.NewRegistry()}
	run := func() {
		if _, err := RunCampaign(res.Mod, res.Metas, art.Outputs, cfg); err != nil {
			t.Fatal(err)
		}
		cfg.Seed++
	}
	run() // prime the image pool
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.2f MiB allocated per campaign", per/(1<<20))
	if per >= 4<<20 {
		t.Fatalf("campaigns allocate %.2f MiB each, want < 4 MiB", per/(1<<20))
	}
}

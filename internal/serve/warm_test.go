package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"encore/internal/obs"
	"encore/internal/sfi"
)

// fetchLedger reads a campaign's full ledger stream.
func fetchLedger(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/campaigns/" + id + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// metricValues returns the registry's counters, gauges and span counts
// by name.
func metricValues(reg *obs.Registry) (map[string]int64, map[string]int64, map[string]int64) {
	snap := reg.Snapshot()
	counters, gauges, spans := map[string]int64{}, map[string]int64{}, map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	for _, sp := range snap.Spans {
		spans[sp.Name] = sp.Count
	}
	return counters, gauges, spans
}

// TestWarmTargetConcurrentSubmits holds 8 campaigns of one key at the
// Gate and releases them together, so their cold compiles race for one
// warm entry, then runs a second, warm round. Every ledger must equal
// batch RunCampaign's for its seed, the compile and golden run happen
// once, and the warm counters account for every submit.
func TestWarmTargetConcurrentSubmits(t *testing.T) {
	const (
		app    = "rawcaudio"
		trials = 24
		n      = 8
	)
	reg := obs.NewRegistry()
	release := make(chan struct{})
	srv := NewServer(Config{Obs: reg, Checkpoints: 16, Gate: func(ctx context.Context, _ string) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for round := 0; round < 2; round++ {
		if round == 1 {
			release = make(chan struct{})
		}
		ids := make([]string, n)
		for i := range ids {
			seed := uint64(round*100 + i + 1)
			code, st, apiErr, _ := submit(t, ts.URL, "",
				fmt.Sprintf(`{"workload":%q,"trials":%d,"seed":%d}`, app, trials, seed))
			if code != http.StatusAccepted {
				t.Fatalf("submit: status %d, error %+v", code, apiErr)
			}
			ids[i] = st.ID
		}
		close(release)
		for i, id := range ids {
			seed := uint64(round*100 + i + 1)
			if got, want := fetchLedger(t, ts.URL, id), batchLedger(t, app, trials, seed, 100); !bytes.Equal(got, want) {
				t.Fatalf("round %d seed %d: served ledger (%d bytes) differs from batch (%d bytes)", round, seed, len(got), len(want))
			}
			if st := waitState(t, ts.URL, id); st.State != StateDone {
				t.Fatalf("campaign %s settled %q", id, st.State)
			}
		}
	}

	counters, gauges, spans := metricValues(reg)
	if counters["serve.warm.misses"] != 1 || counters["serve.warm.hits"] != 2*n-1 || gauges["serve.warm.entries"] != 1 {
		t.Fatalf("warm metrics: misses %d hits %d entries %d, want 1/%d/1",
			counters["serve.warm.misses"], counters["serve.warm.hits"], gauges["serve.warm.entries"], 2*n-1)
	}
	for path, want := range map[string]int64{
		"serve/campaign":                 2 * n,
		"serve/campaign/compile/golden":  1,
		"serve/campaign/compile/capture": 1,
		"compile/finalize":               1,
		"sfi/campaign/trials":            2 * n,
		"sfi/campaign/golden":            0,
	} {
		if spans[path] != want {
			t.Errorf("span %s recorded %d times, want %d", path, spans[path], want)
		}
	}
}

// TestWarmTargetEngineAliases submits one campaign under every spelling
// of the compiled engine — the default, "compiled", and the retired
// "fast" and "closure" names — and checks that they share one warm
// entry and one ledger, and that "ref" gets an entry of its own.
func TestWarmTargetEngineAliases(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServer(Config{Obs: reg}))
	defer ts.Close()
	var first []byte
	for i, engine := range []string{"", "compiled", "fast", "closure", "ref"} {
		body := `{"workload":"rawcaudio","trials":8,"seed":3}`
		if engine != "" {
			body = fmt.Sprintf(`{"workload":"rawcaudio","trials":8,"seed":3,"engine":%q}`, engine)
		}
		code, st, apiErr, _ := submit(t, ts.URL, "", body)
		if code != http.StatusAccepted {
			t.Fatalf("engine %q: status %d, error %+v", engine, code, apiErr)
		}
		want := "compiled"
		if engine == "ref" {
			want = "ref"
		}
		if st.Engine != want {
			t.Errorf("engine %q resolved to %q, want %q", engine, st.Engine, want)
		}
		got := fetchLedger(t, ts.URL, st.ID)
		if st := waitState(t, ts.URL, st.ID); st.State != StateDone {
			t.Fatalf("engine %q: campaign settled %q", engine, st.State)
		}
		if i == 0 {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Errorf("engine %q: ledger differs from the default engine's", engine)
		}
	}
	counters, gauges, _ := metricValues(reg)
	if counters["serve.warm.misses"] != 2 || counters["serve.warm.hits"] != 3 || gauges["serve.warm.entries"] != 2 {
		t.Fatalf("warm metrics: misses %d hits %d entries %d, want 2/3/2",
			counters["serve.warm.misses"], counters["serve.warm.hits"], gauges["serve.warm.entries"])
	}
}

// TestWarmCacheBound submits more distinct inline modules than the warm
// cache holds and checks serve.warm.entries stays at the bound.
func TestWarmCacheBound(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServer(Config{Obs: reg}))
	defer ts.Close()
	const extra = 3
	for i := 0; i < warmCapacity+extra; i++ {
		mod := fmt.Sprintf(`module demo
global data[8]
func main(params=0 regs=3 frame=0):
entry#0:
  r0 = global #0
  r1 = const %d
  store [r0+3] = r1
  r2 = load [r0+3]
  ret r2
`, i)
		body, _ := json.Marshal(SubmitRequest{Module: mod, Outputs: []string{"data"}, Trials: 4})
		code, st, apiErr, _ := submit(t, ts.URL, "", string(body))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, error %+v", i, code, apiErr)
		}
		if st := waitState(t, ts.URL, st.ID); st.State != StateDone {
			t.Fatalf("module %d settled %q (%s)", i, st.State, st.Error)
		}
	}
	counters, gauges, _ := metricValues(reg)
	if gauges["serve.warm.entries"] != warmCapacity || counters["serve.warm.misses"] != warmCapacity+extra {
		t.Fatalf("warm entries %d misses %d, want %d/%d",
			gauges["serve.warm.entries"], counters["serve.warm.misses"], warmCapacity, warmCapacity+extra)
	}
}

// TestSettledCampaignDropsRecords checks that a settled campaign keeps no
// per-trial records while /ledger still replays the batch bytes and
// /result still reports the batch counts and header prediction.
func TestSettledCampaignDropsRecords(t *testing.T) {
	const (
		app    = "rawcaudio"
		trials = 20
		seed   = uint64(3)
	)
	srv := NewServer(Config{Obs: obs.NewRegistry()})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	code, st, apiErr, _ := submit(t, ts.URL, "", fmt.Sprintf(`{"workload":%q,"trials":%d,"seed":%d}`, app, trials, seed))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, error %+v", code, apiErr)
	}
	waitState(t, ts.URL, st.ID)
	if got, want := fetchLedger(t, ts.URL, st.ID), batchLedger(t, app, trials, seed, 100); !bytes.Equal(got, want) {
		t.Fatal("served ledger differs from batch after settle")
	}
	srv.mu.Lock()
	c := srv.campaigns[st.ID]
	srv.mu.Unlock()
	if res := c.campaignResult(); res == nil || res.Records != nil {
		t.Fatalf("settled campaign result %v still holds records", res)
	}

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var got ResultResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, want := batchStats(t, app, trials, seed, 100)
	counts := map[string]int{}
	same := 0
	for _, rec := range want.Records {
		counts[rec.Outcome.String()]++
		if rec.Outcome == sfi.Recovered && rec.SameInstance {
			same++
		}
	}
	for o, n := range counts {
		if got.Counts[o] != n {
			t.Fatalf("/result counts %v, batch records %v", got.Counts, counts)
		}
	}
	if got.SameInstance != same || got.PredCoverage != want.Meta.PredCoverage || got.Executed != trials {
		t.Fatalf("/result %+v disagrees with batch (same_instance %d, pred_coverage %g)", got, same, want.Meta.PredCoverage)
	}
}

// TestWarmKeyIncludesOutputs checks that one inline module submitted
// with different output globals gets a warm target per output set: the
// golden checksum, and so every trial's classification, depends on them.
func TestWarmKeyIncludesOutputs(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServer(Config{Obs: reg}))
	defer ts.Close()
	mod := `module demo
global data[8]
global spare[8]
func main(params=0 regs=3 frame=0):
entry#0:
  r0 = global #0
  r1 = const 7
  store [r0+3] = r1
  r2 = load [r0+3]
  ret r2
`
	for _, outs := range [][]string{{"data"}, {"spare"}, {"data"}} {
		body, _ := json.Marshal(SubmitRequest{Module: mod, Outputs: outs, Trials: 4})
		code, st, apiErr, _ := submit(t, ts.URL, "", string(body))
		if code != http.StatusAccepted {
			t.Fatalf("submit %v: status %d, error %+v", outs, code, apiErr)
		}
		if st := waitState(t, ts.URL, st.ID); st.State != StateDone {
			t.Fatalf("outputs %v settled %q (%s)", outs, st.State, st.Error)
		}
	}
	counters, gauges, _ := metricValues(reg)
	if counters["serve.warm.misses"] != 2 || counters["serve.warm.hits"] != 1 || gauges["serve.warm.entries"] != 2 {
		t.Fatalf("warm misses %d hits %d entries %d, want 2/1/2",
			counters["serve.warm.misses"], counters["serve.warm.hits"], gauges["serve.warm.entries"])
	}
}

// blockingWriter holds its first Write until release is closed, so a
// test can settle a campaign while a ledger follower is mid-stream.
type blockingWriter struct {
	buf     bytes.Buffer
	entered chan struct{}
	release chan struct{}
	writes  int
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	if w.writes == 0 {
		close(w.entered)
		<-w.release
	}
	w.writes++
	return w.buf.Write(p)
}

// TestFollowAcrossPack: a settled campaign's ledger is packed, and a
// follower that was mid-stream when it settled resumes from the packed
// copy without losing or repeating a byte; a follower arriving after the
// settle replays the packed ledger whole. The status line count survives
// the packing.
func TestFollowAcrossPack(t *testing.T) {
	c := newCampaign("c1", "", campaignSpec{})
	var want bytes.Buffer
	write := func(i int) {
		line := fmt.Sprintf("{\"line\":%d,\"pad\":%q}\n", i, strings.Repeat("x", i))
		want.WriteString(line)
		c.Write([]byte(line))
	}
	for i := 0; i < 3; i++ {
		write(i)
	}
	w := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.follow(context.Background(), w)
	}()
	<-w.entered // the follower took the first burst and is writing it
	for i := 3; i < 40; i++ {
		write(i)
	}
	c.finishRun(&sfi.CampaignResult{}, nil)
	if c.chunks != nil || c.packed == nil {
		t.Fatal("settled campaign kept its chunks unpacked")
	}
	close(w.release)
	<-done
	if !bytes.Equal(w.buf.Bytes(), want.Bytes()) {
		t.Fatalf("mid-stream follower got %d bytes, want %d", w.buf.Len(), want.Len())
	}
	var late bytes.Buffer
	c.follow(context.Background(), &late)
	if !bytes.Equal(late.Bytes(), want.Bytes()) {
		t.Fatalf("late follower got %d bytes, want %d", late.Len(), want.Len())
	}
	if st := c.status(); st.LedgerRecords != 39 {
		t.Fatalf("status reports %d ledger records, want 39", st.LedgerRecords)
	}
}

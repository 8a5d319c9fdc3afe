package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"encore/internal/obs"
	"encore/internal/serve"
	"encore/internal/sfi"
)

// serve-small: a closed loop of two clients, each submitting a 50-trial
// campaign over loopback HTTP to an in-process daemon with the
// encore-serve defaults and reading its ledger stream to the end before
// submitting again. It uses sfi the opposite way from campaign-batch:
// per-campaign fixed cost (Replay+Finalize with its measure run,
// Predecode, fresh machine images, golden run, ladder capture) dominates,
// and two clients contend for two cores.
var serveSmall = workloadDef{
	name: "serve-small",
	alias: map[string]string{
		"throughput_per_s":    "campaigns_per_s",
		"latency_ms_p50":      "campaign_latency_ms_p50",
		"latency_ms_p75":      "campaign_latency_ms_p75",
		"first_result_ms_p50": "first_record_ms_p50",
	},
	run: runServeSmall,
}

// serveKernels all have short golden runs, so fixed cost dominates.
var serveKernels = []string{"175.vpr", "300.twolf", "djpeg", "epic", "unepic", "pegwitenc"}

const (
	serveClients = 2
	serveTrials  = 50
	// One campaign in sampleEvery keeps its ledger for the cmp check
	// against in-process batch output.
	sampleEvery = 16
	// The daemon keeps every settled campaign and its heap grows with
	// the campaigns it has served (to 3 GB after 20 s on one daemon at
	// the commit that defined the benchmark), so the measured time is
	// split into windows of this length, each served by a freshly set-up
	// daemon on an empty heap; peak_rss_mb shows one window's growth.
	serveWindow = 2 * time.Second
)

// daemon is one in-process encore-serve.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	base string
	cl   *http.Client
}

func startDaemon(reg *obs.Registry) (*daemon, error) {
	// encore-serve's flag defaults: 8192-trial budget, no per-tenant
	// split, default engine and workers, 16 checkpoints.
	srv := serve.NewServer(serve.Config{MaxInFlightTrials: 8192, RetryAfter: time.Second, Checkpoints: sfiCheckpoints, Obs: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv}, done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		cl:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}},
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits for its serve goroutine to end.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		return err
	}
	err := d.hs.Shutdown(ctx)
	d.cl.CloseIdleConnections()
	if serr := <-d.done; serr != http.ErrServerClosed {
		return serr
	}
	return err
}

// served is one campaign as a client saw it.
type served struct {
	id, app                     string
	seed                        uint64
	submit, header, first, last time.Time
	start                       time.Time
	lines                       int
	ordered                     bool
	counts                      map[string]int
	ledger                      []byte // kept for sampled campaigns only
}

var (
	trialKey   = []byte(`"trial":`)
	outcomeKey = []byte(`"outcome":"`)
)

// submit runs one campaign: POST, then stream the ledger to its end.
// In a traced run span opens the client-side phase spans: POST → 202,
// 202 → header line, header → last line.
func (d *daemon) submit(span func(string) *obs.Span, app string, seed uint64, keep bool) (*served, error) {
	c := &served{app: app, seed: seed, counts: map[string]int{}, ordered: true}
	body := fmt.Sprintf(`{"workload":%q,"trials":%d,"seed":%d}`, app, serveTrials, seed)
	c.start = time.Now()
	sp := span("client/serve.submit")
	resp, err := d.cl.Post(d.base+"/v1/campaigns", "application/json", bytes.NewBufferString(body))
	if err != nil {
		return nil, err
	}
	var st serve.CampaignStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit %s: status %d: %v", app, resp.StatusCode, err)
	}
	c.submit = time.Now()
	sp.End()
	sp = span("client/serve.to_header")
	c.id = st.ID

	resp, err = d.cl.Get(d.base + "/v1/campaigns/" + c.id + "/ledger")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			now := time.Now()
			switch c.lines {
			case 0:
				c.header = now
				sp.End()
				sp = span("client/serve.trials")
			case 1:
				c.first = now
			}
			if c.lines > 0 {
				c.scan(line)
			}
			if keep {
				c.ledger = append(c.ledger, line...)
			}
			c.lines++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("ledger %s: %w", c.id, err)
		}
	}
	c.last = time.Now()
	sp.End()
	return c, nil
}

// scan checks that trial lines arrive in trial order and tallies their
// outcomes, without a full JSON decode on the client's hot path.
func (c *served) scan(line []byte) {
	want := c.lines - 1
	i := bytes.Index(line, trialKey)
	if i < 0 {
		c.ordered = false
		return
	}
	rest := line[i+len(trialKey):]
	j := bytes.IndexAny(rest, ",}")
	if n, err := strconv.Atoi(string(rest[:j])); err != nil || n != want {
		c.ordered = false
	}
	if k := bytes.Index(line, outcomeKey); k >= 0 {
		o := line[k+len(outcomeKey):]
		c.counts[string(o[:bytes.IndexByte(o, '"')])]++
	}
}

// warmDaemon starts a daemon and, as a long-lived daemon would have,
// compiles each kernel once by serving it one campaign.
func warmDaemon(reg *obs.Registry) (*daemon, error) {
	d, err := startDaemon(reg)
	if err != nil {
		return nil, err
	}
	for i, app := range serveKernels {
		if _, err := d.submit(noSpan, app, uint64(i), false); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

func runServeSmall(r *runCtx) error {
	var spare []*daemon
	d, err := timeSetup(r, setupRepeats, func() (*daemon, error) {
		d, err := warmDaemon(r.reg)
		spare = append(spare, d)
		return d, err
	})
	if err != nil {
		return err
	}
	for _, o := range spare[:len(spare)-1] {
		if err := o.stop(); err != nil {
			return err
		}
	}

	// Rotation order and campaign seeds come from the workload seed; the
	// seed of a campaign is its submission index mixed with it, so no two
	// campaigns of a run are identical.
	rot := rand.New(rand.NewSource(int64(r.seed))).Perm(len(serveKernels))
	var (
		camps []*served
		wall  time.Duration
		next  int
		rates []float64 // campaigns/s of each window
		peaks []float64 // VmHWM of each window
	)
	mem := readMem()
	total := time.Duration(r.seconds * float64(time.Second))
	for wall < total {
		if wall > 0 {
			// A fresh daemon is a fresh process: start it on an empty
			// heap, so one window's garbage does not pace the next.
			runtime.GC()
			debug.FreeOSMemory()
			if d, err = warmDaemon(r.reg); err != nil {
				return err
			}
		}
		resetPeak()
		cs, w, err := serveWindowRun(r, d, min(serveWindow, total-wall), &next, rot)
		peaks = append(peaks, peakRSSMB())
		if err == nil {
			err = checkServedResults(r, d, cs)
		}
		if serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		camps = append(camps, cs...)
		wall += w
		rates = append(rates, float64(len(cs))/w.Seconds())
	}
	r.recordMem(mem, len(camps))

	var lat, first, submitMS, toHeader, trialsMS []float64
	for _, c := range camps {
		lat = append(lat, ms(c.last.Sub(c.start)))
		first = append(first, ms(c.first.Sub(c.start)))
		submitMS = append(submitMS, ms(c.submit.Sub(c.start)))
		toHeader = append(toHeader, ms(c.header.Sub(c.submit)))
		trialsMS = append(trialsMS, ms(c.last.Sub(c.header)))
	}
	// The median window's rate, so one slow stretch does not move it.
	r.e2e["throughput_per_s"] = median(rates)
	r.e2e["latency_ms_p50"] = median(lat)
	r.e2e["latency_ms_p75"] = quantile(lat, 0.75)
	// The shared tail metric is p75 (see endToEnd); serve-small has the
	// samples for p90 too, so it is printed beside it.
	r.note("campaign_latency_ms_p90 %.4f ms over %d campaigns", quantile(lat, 0.9), len(lat))
	r.e2e["first_result_ms_p50"] = median(first)
	r.e2e["peak_rss_mb"] = median(peaks)
	r.layers["serve.submit_ms"] = median(submitMS)
	r.layers["serve.to_header_ms"] = median(toHeader)
	r.layers["serve.trials_ms"] = median(trialsMS)
	r.note("%d campaigns of %d trials from %d clients in %.2fs", len(camps), serveTrials, serveClients, wall.Seconds())

	if err := checkServedSample(r, camps); err != nil {
		return err
	}
	if r.traced {
		return serveDecomp(r)
	}
	return nil
}

// serveWindowRun drives the closed loop against d for one window and
// returns the campaigns it completed and the window's wall time.
func serveWindowRun(r *runCtx, d *daemon, length time.Duration, next *int, rot []int) ([]*served, time.Duration, error) {
	var (
		mu     sync.Mutex
		camps  []*served
		runErr error
		wg     sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(length)
	for cl := 0; cl < serveClients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				mu.Lock()
				i := *next
				*next++
				stop := runErr != nil
				mu.Unlock()
				if stop {
					return
				}
				app := serveKernels[rot[i%len(rot)]]
				seed := r.seed*1_000_003 + uint64(i)
				keep := i%sampleEvery == int(r.seed%sampleEvery)
				c, err := d.submit(r.span, app, seed, keep)
				mu.Lock()
				if err != nil && runErr == nil {
					runErr = err
				}
				if err == nil {
					camps = append(camps, c)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return camps, time.Since(start), runErr
}

// checkServedResults is the untimed check of one window: every ledger is
// a header plus exactly serveTrials lines in trial order whose outcome
// counts match /result.
func checkServedResults(r *runCtx, d *daemon, camps []*served) error {
	for _, c := range camps {
		var res serve.ResultResponse
		resp, err := d.cl.Get(d.base + "/v1/campaigns/" + c.id + "/result")
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		ok := err == nil && c.lines == serveTrials+1 && c.ordered && res.State == serve.StateDone
		for o, n := range res.Counts {
			ok = ok && c.counts[o] == n
		}
		for o, n := range c.counts {
			ok = ok && res.Counts[o] == n
		}
		r.check(ok, "campaign %s (%s seed %d): %d lines, ordered %v, counts %v vs /result %v (%v)",
			c.id, c.app, c.seed, c.lines, c.ordered, c.counts, res.Counts, err)
	}
	return nil
}

// checkServedSample requires each sampled ledger to be byte-equal to
// in-process batch RunCampaign output for the same workload and seed.
func checkServedSample(r *runCtx, camps []*served) error {
	kernels := map[string]*compiled{}
	for _, c := range camps {
		if c.ledger == nil {
			continue
		}
		k := kernels[c.app]
		if k == nil {
			var err error
			if k, err = compileKernel(c.app, obs.NewRegistry()); err != nil {
				return err
			}
			kernels[c.app] = k
		}
		var buf bytes.Buffer
		_, err := sfi.RunCampaign(k.res.Mod, k.res.Metas, k.outs, sfi.CampaignConfig{
			Trials: serveTrials, Seed: c.seed, Dmax: sfiDmax, Checkpoints: sfiCheckpoints,
			App: c.app, Regions: k.regions, Trace: obs.NewJSONLSink(&buf), Obs: obs.NewRegistry(),
		})
		r.check(err == nil && bytes.Equal(buf.Bytes(), c.ledger),
			"campaign %s (%s seed %d): served ledger differs from batch RunCampaign (err %v)", c.id, c.app, c.seed, err)
	}
	return nil
}

// serveDecomp times the per-campaign fixed cost the daemon pays, from
// outside: Predecode, New, the golden Run and the ladder capture of each
// rotation kernel, and an in-process campaign's call → header line.
func serveDecomp(r *runCtx) error {
	var (
		d      decomp
		header []float64
	)
	for i, app := range serveKernels {
		k, err := compileKernel(app, r.reg)
		if err != nil {
			return err
		}
		m, _, _, err := d.goldenAndLadder(r, k.res.Mod, k.res.Metas, k.outs)
		if err != nil {
			return fmt.Errorf("%s: %w", app, err)
		}
		m.Release()
		tap := &ledgerTap{}
		t0 := time.Now()
		s := r.span("bench/sfi.RunCampaign")
		_, err = sfi.RunCampaign(k.res.Mod, k.res.Metas, k.outs, sfi.CampaignConfig{
			Trials: serveTrials, Seed: uint64(i), Dmax: sfiDmax, Checkpoints: sfiCheckpoints,
			App: app, Regions: k.regions, Trace: obs.NewJSONLSink(tap), Obs: r.reg,
		})
		s.End()
		if err != nil {
			return fmt.Errorf("%s: %w", app, err)
		}
		header = append(header, ms(tap.headerAt.Sub(t0)))
	}
	d.report(r)
	r.layers["sfi.header_ms"] = median(header)
	return nil
}

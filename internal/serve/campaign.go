package serve

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"encore/internal/sfi"
	"encore/internal/stats"
)

// Campaign lifecycle states, as reported by the status and result
// endpoints. A campaign is born running (admission happens before it
// exists) and settles in exactly one terminal state; the drain/cancel
// state machine is documented in DESIGN.md §13.
const (
	// StateRunning: admitted and executing (or waiting on the Gate seam).
	StateRunning = "running"
	// StateDone: every trial ran and the ledger is complete.
	StateDone = "done"
	// StateCanceled: canceled mid-flight; the ledger holds the completed
	// prefix and the result counts only executed trials.
	StateCanceled = "canceled"
	// StateFailed: compilation or the golden run failed; see the status
	// error field.
	StateFailed = "failed"
)

// campaign is one admitted request's full lifecycle: spec, cancelable
// context, ledger chunk buffer, and terminal state. The chunk buffer is
// the streaming seam — sfi.RunCampaign's JSONL sink writes encoded
// records into it (one Write per record, in trial order), and any number
// of ledger followers replay the chunks concurrently, waking on the cond
// as the completed prefix grows. Once the campaign settles, the chunks
// are packed into one flate-compressed ledger (about a sixth of the
// size), since the daemon keeps every settled campaign.
type campaign struct {
	id      string
	tenant  string
	spec    campaignSpec
	ctx     context.Context
	cancel  context.CancelFunc
	started time.Time
	// est is the campaign's online estimator: sfi.RunCampaign feeds it
	// every trial record in ledger order (before the record's trace chunk
	// is written), so the stats endpoints can snapshot per-region
	// convergence at any point and the final snapshot agrees exactly with
	// post-hoc attribution.
	est *stats.Estimator

	mu     sync.Mutex
	cond   *sync.Cond
	state  string
	errMsg string
	result *sfi.CampaignResult
	chunks [][]byte
	closed bool // no more chunks will arrive; followers can finish
	// packed is the settled ledger, flate-compressed, replacing chunks;
	// records counts the ledger's lines either way.
	packed  []byte
	records int
}

func newCampaign(id, tenant string, spec campaignSpec) *campaign {
	ctx, cancel := context.WithCancel(context.Background())
	c := &campaign{
		id: id, tenant: tenant, spec: spec, ctx: ctx, cancel: cancel,
		started: time.Now(), est: stats.New(), state: StateRunning,
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Write implements io.Writer for the campaign's JSONL trace sink: each
// call is one encoded ledger record (json.Encoder issues a single Write
// per Encode), appended to the chunk buffer and announced to followers.
// The byte stream is exactly the concatenation of the chunks, so
// followers reproduce the batch ledger byte for byte.
func (c *campaign) Write(p []byte) (int, error) {
	b := make([]byte, len(p))
	copy(b, p)
	c.mu.Lock()
	c.chunks = append(c.chunks, b)
	c.records++
	c.cond.Broadcast()
	c.mu.Unlock()
	return len(p), nil
}

// flaters and inflaters recycle ledger compressors and decompressors: a
// flate.Writer carries several hundred KiB of tables and a reader a
// 32 KiB window, far more than one settled ledger.
var flaters, inflaters sync.Pool

// pack compresses the concatenated chunks into one flate stream.
func pack(chunks [][]byte) []byte {
	var buf bytes.Buffer
	fw, _ := flaters.Get().(*flate.Writer)
	if fw == nil {
		// BestSpeed cannot fail: NewWriter errors only on a bad level.
		fw, _ = flate.NewWriter(&buf, flate.BestSpeed)
	} else {
		fw.Reset(&buf)
	}
	for _, ch := range chunks {
		fw.Write(ch) // writes to a bytes.Buffer cannot fail
	}
	fw.Close()
	flaters.Put(fw)
	return bytes.Clone(buf.Bytes())
}

// finishRun settles the campaign's terminal state from its runner's
// result and closes the ledger stream. The per-trial records are dropped:
// the chunk buffer already holds them as ledger bytes, and /result reads
// only the counts and the header.
func (c *campaign) finishRun(res *sfi.CampaignResult, err error) {
	if res != nil {
		res.Records = nil
	}
	// The runner has returned, so no chunk arrives any more: compress
	// them outside the lock and swap the packed ledger in below.
	c.mu.Lock()
	chunks := c.chunks
	c.mu.Unlock()
	packed := pack(chunks)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.packed, c.chunks = packed, nil
	c.result = res
	switch {
	case err == nil:
		c.state = StateDone
	case errors.Is(err, context.Canceled):
		c.state = StateCanceled
		c.errMsg = "canceled"
	default:
		c.state = StateFailed
		c.errMsg = err.Error()
	}
	c.closed = true
	c.cond.Broadcast()
}

// campaignResult returns the settled result (nil while running or after
// a compile failure).
func (c *campaign) campaignResult() *sfi.CampaignResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result
}

// status snapshots the campaign for the JSON API.
func (c *campaign) status() CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CampaignStatus{
		ID: c.id, Tenant: c.tenant, App: c.spec.app, State: c.state,
		Trials: c.spec.trials, Seed: c.spec.seed, Dmax: c.spec.dmax,
		Engine: c.spec.ccfg.Interp.Engine.String(),
		Error:  c.errMsg,
	}
	if n := c.records - 1; n > 0 { // the first line is the header record
		st.LedgerRecords = n
	}
	if c.result != nil {
		st.Executed = c.result.Executed
	}
	return st
}

// follow streams the ledger to w from the beginning: already-buffered
// chunks replay immediately, then the follower blocks on the cond until
// new records arrive or the campaign settles. Each burst is flushed so
// chunked HTTP responses deliver records incrementally. Once the campaign
// has settled the follower writes the rest of the packed ledger, past
// the bytes it already wrote. Returns when the ledger is complete
// (campaign settled and every byte written) or ctx is canceled (client
// went away).
func (c *campaign) follow(ctx context.Context, w io.Writer) {
	flusher, _ := w.(http.Flusher)
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	next, sent := 0, int64(0)
	for {
		c.mu.Lock()
		for next >= len(c.chunks) && !c.closed && ctx.Err() == nil {
			c.cond.Wait()
		}
		if packed := c.packed; packed != nil {
			c.mu.Unlock()
			r, _ := inflaters.Get().(io.ReadCloser)
			if r == nil {
				r = flate.NewReader(bytes.NewReader(packed))
			} else {
				// Resetting onto an in-memory stream cannot fail.
				r.(flate.Resetter).Reset(bytes.NewReader(packed), nil)
			}
			if _, err := io.CopyN(io.Discard, r, sent); err == nil {
				io.Copy(w, r) // the follower is done either way
			}
			inflaters.Put(r)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		burst := c.chunks[next:]
		next = len(c.chunks)
		closed := c.closed
		c.mu.Unlock()
		for _, chunk := range burst {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			sent += int64(len(chunk))
		}
		if flusher != nil && len(burst) > 0 {
			flusher.Flush()
		}
		if (closed && len(burst) == 0) || ctx.Err() != nil {
			return
		}
	}
}

// followStats streams estimator snapshots to w as NDJSON: one snapshot
// immediately, then one each time at least every further trials have
// settled, then a final snapshot when the campaign settles (deduplicated
// if nothing changed since the last emission). Followers wake on the
// campaign cond — the same broadcast the ledger chunks ring — and the
// estimator is updated before each ledger chunk lands, so a woken
// follower always sees at least the trial whose chunk woke it. Only the
// final snapshot is held to the cross-shape byte-identity guarantee;
// intermediate ones sample live progress at whatever trial count they
// catch. Returns when the campaign settles or ctx is canceled.
func (c *campaign) followStats(ctx context.Context, w io.Writer, every int) {
	if every <= 0 {
		every = DefaultStatsStreamEvery
	}
	flusher, _ := w.(http.Flusher)
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	enc := json.NewEncoder(w)
	last := -1
	emit := func() bool {
		snap := c.est.Snapshot()
		if snap.Trials == last {
			return true // nothing settled since the previous snapshot
		}
		last = snap.Trials
		if err := enc.Encode(snap); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !emit() {
		return
	}
	for {
		c.mu.Lock()
		for ctx.Err() == nil && !c.closed && c.est.Trials() < last+every {
			c.cond.Wait()
		}
		closed := c.closed
		c.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		if !emit() || closed {
			return
		}
	}
}

// Package obs is the reproduction's observability subsystem: monotonic
// counters, log2-bucketed histograms, and hierarchical timed spans,
// registered in a concurrent Registry and exported through a
// deterministic snapshot (human-readable table or JSON).
//
// Design constraints (see DESIGN.md §9):
//
//   - Allocation-conscious. Counters and histograms are allocated once
//     at registration and updated with atomic operations; spans allocate
//     one small struct per Begin and aggregate by path on End, so steady
//     state adds no garbage beyond span starts.
//   - Boundary-folded. The interpreter's compiled engine contains no
//     metric hooks; machine-level counters are folded into a registry
//     only at Reset/Release boundaries (interp.Machine.AttachObs), and
//     the dense profiling counters are summed at the same points.
//   - Nil-safe handles. A nil *Registry yields nil *Counter, *Histogram,
//     and *Span values whose methods are no-ops, so instrumented code
//     paths need no conditionals around optional observability.
//
// Every layer of the pipeline reports here: internal/core times each
// compile stage, internal/region counts heuristic decisions,
// internal/interp folds execution and checkpoint-traffic counters, and
// internal/sfi counts trial outcomes and per-worker throughput. The
// three commands expose the process-wide Default registry through a
// shared -metrics flag.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic (or at least additive) int64 metric. The zero
// value is ready to use; the methods are safe for concurrent use and a
// nil receiver is a no-op, so counters can be threaded through optional
// code paths unconditionally.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric for instantaneous levels (queue
// depth, in-flight trials) rather than accumulated totals. The zero
// value is ready to use; the methods are safe for concurrent use and a
// nil receiver is a no-op, mirroring Counter.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by d (negative d lowers it).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log2 buckets: bucket i holds values v
// with bits.Len64(v) == i, i.e. bucket 0 is v==0, bucket 1 is v==1,
// bucket 2 is 2..3, and so on up to the full int64 range.
const histBuckets = 65

// Histogram accumulates an int64 value distribution in log2 buckets.
// Negative observations clamp to zero. The zero value is ready to use;
// methods are safe for concurrent use and nil receivers are no-ops.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Registry is a concurrent collection of named counters, histograms,
// and span aggregates. Metric handles are registered on first use and
// then updated lock-free (counters, histograms) or under a short
// mutex-protected aggregation (span End). The zero value is not usable;
// call NewRegistry, or use Default for the process-wide registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*spanStat

	// Span-event capture for Chrome trace export (see chrometrace.go):
	// off by default, toggled by CaptureSpans.
	captureSpans bool
	spanEvents   []SpanEvent
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		spans:    map[string]*spanStat{},
	}
}

// defaultReg is the process-wide registry behind Default.
var defaultReg = NewRegistry()

// Default returns the process-wide registry. Library layers that accept
// an optional *Registry fall back to it when handed nil (see Or), so a
// command-level -metrics dump sees every layer's metrics without any
// explicit plumbing.
func Default() *Registry { return defaultReg }

// Or returns r when non-nil and the Default registry otherwise — the
// resolution rule every optional config field uses.
func Or(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return defaultReg
}

// Counter returns the counter registered under name, creating it on
// first use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Add is shorthand for Counter(name).Add(d).
func (r *Registry) Add(name string, d int64) { r.Counter(name).Add(d) }

// Reset drops every registered metric. Outstanding Counter/Histogram
// handles keep working but are no longer visible in snapshots. Intended
// for tests.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.hists = map[string]*Histogram{}
	r.spans = map[string]*spanStat{}
	r.spanEvents = nil
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

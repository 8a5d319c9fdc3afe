package serve

import (
	"container/list"
	"sync"

	"encore/internal/alias"
	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/obs"
	"encore/internal/sfi"
)

// warmCapacity bounds the warm-target cache: the number of distinct
// (source, compile config, checkpoints) keys whose compiled module and
// golden target the daemon keeps. Past it, the least recently used key
// is evicted; a campaign already running on an evicted target keeps it
// until the campaign ends.
const warmCapacity = 16

// warmKey is the warm-target identity: the core.SnapshotCache key (the
// source plus the analysis-stage knobs), every Config field Finalize
// reads on top of it (γ, the budget, and the interpreter config, of which
// a request can set only the engine), the output globals the golden
// checksum covers, and the checkpoint-ladder size. Everything a warm
// entry holds is a deterministic function of this key.
type warmKey struct {
	source      string
	outputs     string
	pmin        float64
	usePmin     bool
	eta         float64
	aliasMode   alias.Mode
	optimize    bool
	engine      interp.Engine
	gamma       float64
	budget      float64
	checkpoints int
}

func (sp *campaignSpec) warmKey() warmKey {
	c := sp.ccfg
	return warmKey{
		source: sp.source, outputs: sp.outputs,
		pmin: c.Pmin, usePmin: c.UsePmin, eta: c.Eta,
		aliasMode: c.AliasMode, optimize: c.Optimize, engine: c.Interp.Engine,
		gamma: c.Gamma, budget: c.Budget, checkpoints: sp.checkpoints,
	}
}

// warmTarget is one cached compile: the Finalize result (read-only from
// here on — requests only derive their RegionTable from it) and the
// golden target campaigns run on, which holds the output globals of the
// same build.
type warmTarget struct {
	key    warmKey
	once   sync.Once
	res    *core.Result
	target *sfi.Target
	err    error
}

// warmCache is the daemon's LRU of warm targets. Concurrent cold requests
// for one key build it once; the others wait on the entry's sync.Once, as
// with core.SnapshotCache. A failed build is cached too: it is as
// deterministic as a successful one.
type warmCache struct {
	hits, misses *obs.Counter
	entries      *obs.Gauge

	mu  sync.Mutex
	m   map[warmKey]*list.Element
	lru *list.List // of *warmTarget, most recently used first
}

func newWarmCache(reg *obs.Registry) *warmCache {
	return &warmCache{
		hits: reg.Counter("serve.warm.hits"), misses: reg.Counter("serve.warm.misses"),
		entries: reg.Gauge("serve.warm.entries"),
		m:       map[warmKey]*list.Element{}, lru: list.New(),
	}
}

// get returns key's warm target, running build to fill it on a miss.
func (c *warmCache) get(key warmKey, build func() (*core.Result, *sfi.Target, error)) *warmTarget {
	c.mu.Lock()
	el := c.m[key]
	if el != nil {
		c.lru.MoveToFront(el)
		c.hits.Inc()
	} else {
		el = c.lru.PushFront(&warmTarget{key: key})
		c.m[key] = el
		c.misses.Inc()
		if c.lru.Len() > warmCapacity {
			old := c.lru.Back()
			c.lru.Remove(old)
			delete(c.m, old.Value.(*warmTarget).key)
		}
		c.entries.Set(int64(c.lru.Len()))
	}
	w := el.Value.(*warmTarget)
	c.mu.Unlock()
	w.once.Do(func() { w.res, w.target, w.err = build() })
	return w
}

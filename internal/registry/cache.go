package registry

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// Cache is a ref-counted LRU over loaded predictors. Each resident
// predictor carries its own warmed inference state — the per-padded-
// batch-size arena pools inside core.Predictor — so the cache is
// effectively an LRU of warmed InferArena sets keyed by model, with the
// batch-shape key nested inside each entry. The hit path is a mutex'd
// map lookup plus a refcount bump: zero heap allocations (pinned by
// TestCacheHitZeroAllocs), which is what lets a fleet request resolve
// its model on every single call without a steady-state cost.
//
// Eviction is capacity-driven and pin-aware: past MaxResident, the
// least-recently-acquired entry with no outstanding handles is dropped.
// Pinned entries (refs > 0) are never evicted — a shard mid-batch on a
// model keeps its arenas alive — so the resident count can transiently
// exceed the cap when everything is pinned; it converges back as
// handles are released and later acquires evict.
type Cache struct {
	store *Store
	max   int

	mu     sync.Mutex
	byName map[string]*Handle
	seq    uint64

	hits, misses, evictions atomic.Uint64
}

// Handle is one acquired reference to a resident predictor. Callers
// must Release it when done with the predictor for this request; the
// predictor stays valid (and its arenas warm) for as long as at least
// one handle is outstanding or the entry remains resident.
type Handle struct {
	cache    *Cache
	name     string
	version  int
	p        *core.Predictor
	refs     int    // guarded by cache.mu
	touch    uint64 // guarded by cache.mu
	resident bool   // still reachable via cache.byName
}

// Predictor returns the loaded predictor.
func (h *Handle) Predictor() *core.Predictor { return h.p }

// Version returns the artifact version this handle serves.
func (h *Handle) Version() int { return h.version }

// Name returns the model name this handle serves.
func (h *Handle) Name() string { return h.name }

// Release drops one reference. Safe to call from any goroutine; must be
// called exactly once per successful Acquire.
func (h *Handle) Release() {
	h.cache.mu.Lock()
	h.refs--
	h.cache.mu.Unlock()
}

// NewCache wraps store with an LRU of at most maxResident warmed models
// (≤ 0 defaults to 8).
func NewCache(store *Store, maxResident int) *Cache {
	if maxResident <= 0 {
		maxResident = 8
	}
	return &Cache{store: store, max: maxResident, byName: make(map[string]*Handle)}
}

// Acquire returns a handle on the latest published version of name,
// loading and warming it on a miss. A publish after the entry became
// resident is picked up on the next Acquire: the stale entry is
// unlinked (it lives on until its last holder releases) and the new
// version loads in its place.
func (c *Cache) Acquire(name string) (*Handle, error) {
	c.mu.Lock()
	if h := c.byName[name]; h != nil {
		if v, ok := c.store.Latest(name); ok && v == h.version {
			h.refs++
			c.seq++
			h.touch = c.seq
			c.mu.Unlock()
			c.hits.Add(1)
			return h, nil
		}
		// A newer version exists (or the model vanished): unlink the
		// stale entry and fall through to the miss path.
		h.resident = false
		delete(c.byName, name)
	}
	c.mu.Unlock()

	c.misses.Add(1)
	p, v, err := c.store.Load(name, 0)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Another goroutine may have raced the load; prefer the entry that
	// is already resident (its arenas may be warm).
	if cur := c.byName[name]; cur != nil && cur.version == v {
		cur.refs++
		c.seq++
		cur.touch = c.seq
		return cur, nil
	}
	c.seq++
	h := &Handle{cache: c, name: name, version: v, p: p, refs: 1, touch: c.seq, resident: true}
	c.byName[name] = h
	c.evictLocked()
	return h, nil
}

// evictLocked drops least-recently-acquired unpinned entries until the
// resident count fits the cap. Linear scan: it runs only on insert,
// never on the hit path, and MaxResident is small.
func (c *Cache) evictLocked() {
	for len(c.byName) > c.max {
		var victim *Handle
		for _, h := range c.byName {
			if h.refs > 0 {
				continue
			}
			if victim == nil || h.touch < victim.touch {
				victim = h
			}
		}
		if victim == nil {
			return // everything pinned; converge later
		}
		victim.resident = false
		delete(c.byName, victim.name)
		c.evictions.Add(1)
	}
}

// CacheStats is a point-in-time cache accounting snapshot.
type CacheStats struct {
	Resident  int    `json:"resident"`
	MaxValue  int    `json:"max_resident"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	resident := len(c.byName)
	c.mu.Unlock()
	return CacheStats{
		Resident:  resident,
		MaxValue:  c.max,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// RegisterMetrics exports the cache counters into reg:
// rptcn_registry_cache_{resident,hits,misses,evictions}.
func (c *Cache) RegisterMetrics(reg *obs.Registry) {
	resident := reg.Gauge("rptcn_registry_cache_resident",
		"Models resident in the registry's warmed-arena LRU cache.")
	hits := reg.Counter("rptcn_registry_cache_hits_total",
		"Model acquisitions served from the warmed cache.")
	misses := reg.Counter("rptcn_registry_cache_misses_total",
		"Model acquisitions that lazily loaded an artifact from disk.")
	evictions := reg.Counter("rptcn_registry_cache_evictions_total",
		"Warmed models LRU-evicted from the registry cache.")
	catchUp := func(ctr *obs.Counter, v uint64) {
		if d := float64(v) - ctr.Value(); d > 0 {
			ctr.Add(d)
		}
	}
	reg.RegisterCollector(func() {
		st := c.Stats()
		resident.Set(float64(st.Resident))
		catchUp(hits, st.Hits)
		catchUp(misses, st.Misses)
		catchUp(evictions, st.Evictions)
	})
}

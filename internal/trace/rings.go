package trace

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Ring is a fixed-capacity sliding sample buffer for one entity, built
// for the streaming ingestion path: ScanCSV (or an ingest endpoint)
// appends samples as they arrive, and the serving layer reads the
// trailing window straight out of the buffer with no copy.
//
// Storage is mirrored: each indicator's backing slice is twice the
// capacity and every append writes the sample at position i and i+cap.
// Any trailing window of up to cap samples is therefore one contiguous
// slice per indicator, so Window returns views, never copies.
//
// Ring is not synchronized; RingStore serializes access per entity.
type Ring struct {
	capacity int
	count    int // total accepted samples, monotonic
	firstTS  int
	lastTS   int
	data     [NumIndicators][]float64 // mirrored, len 2*capacity
	views    [][]float64              // reused Window return value
}

// NewRing creates a ring holding the most recent capacity samples.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("trace: ring capacity must be positive")
	}
	r := &Ring{capacity: capacity, views: make([][]float64, NumIndicators)}
	for i := range r.data {
		r.data[i] = make([]float64, 2*capacity)
	}
	return r
}

// Append adds one sample. Timestamps must strictly advance: a sample at
// or before the newest accepted one is rejected (returns false) —
// streaming replaces the batch loader's sort-and-dedup pass with this
// monotonicity gate.
func (r *Ring) Append(ts int, vals *[NumIndicators]float64) bool {
	if r.count > 0 && ts <= r.lastTS {
		return false
	}
	pos := r.count % r.capacity
	for i := 0; i < NumIndicators; i++ {
		r.data[i][pos] = vals[i]
		r.data[i][pos+r.capacity] = vals[i]
	}
	if r.count == 0 {
		r.firstTS = ts
	}
	r.lastTS = ts
	r.count++
	return true
}

// Len returns the number of samples currently held (≤ capacity).
func (r *Ring) Len() int {
	if r.count < r.capacity {
		return r.count
	}
	return r.capacity
}

// Total returns the number of samples ever accepted.
func (r *Ring) Total() int { return r.count }

// LastTS returns the newest accepted timestamp (meaningless before the
// first Append).
func (r *Ring) LastTS() int { return r.lastTS }

// Interval estimates the sampling interval from the accepted span,
// defaulting to 10s before two samples arrive (matching inferInterval).
func (r *Ring) Interval() int {
	if r.count < 2 {
		return 10
	}
	d := (r.lastTS - r.firstTS) / (r.count - 1)
	if d <= 0 {
		return 10
	}
	return d
}

// Window returns per-indicator views of the most recent n samples in
// canonical indicator order, oldest first. n is clamped to Len. The
// returned slice-of-slices is reused across calls and the views alias
// the ring's storage: both are valid only until the next Append or
// Window on this ring.
func (r *Ring) Window(n int) [][]float64 {
	if n > r.Len() {
		n = r.Len()
	}
	end := (r.count-1)%r.capacity + r.capacity + 1
	for i := range r.views {
		r.views[i] = r.data[i][end-n : end]
	}
	return r.views
}

// RingSource is the read surface consumers of ring history need —
// recent windows, entity enumeration, sample counts — without caring
// how the rings are laid out. *RingStore implements it directly; the
// sharded fleet router (internal/shard.Router) implements it by
// delegating to its per-shard stores, so consumers like the adaptation
// supervisor work unchanged whether serving is sharded or not.
type RingSource interface {
	// WithWindow runs fn with zero-copy views of the entity's most
	// recent n samples; see RingStore.WithWindow for the aliasing rules.
	WithWindow(entity string, n int, fn func(win [][]float64, interval, lastTS int)) bool
	// Entities returns the known entity IDs (a copy, safe to retain).
	Entities() []string
	// SampleCount returns how many samples the entity currently holds.
	SampleCount(entity string) int
}

// RingStore holds one Ring per entity and is the bridge between
// streaming ingestion and serving: ScanCSV's callback feeds Ingest, and
// the forecaster reads windows via WithWindow. It is safe for concurrent
// use.
type RingStore struct {
	mu          sync.RWMutex
	capacity    int
	maxEntities int // 0 = unbounded
	rings       map[string]*ringEntry
	// order lists the entities first seen first; an evicted entity leaves
	// a nil behind (dead counts them) until compaction squeezes them out.
	order []*ringEntry
	dead  int
	// lru is a min-heap on the stamp each entry had when it was last
	// looked at under mu — never newer than its live touch stamp, which is
	// what lets eviction find the exact least recently used entity
	// without scanning (see evictOldestLocked).
	lru lruHeap

	// seq is a store-wide logical clock; every touch (ingest or window
	// read) stamps the entity with seq's next value, so the entity with
	// the smallest stamp is the least recently used. Atomics keep the
	// hot path allocation-free and outside the store lock.
	seq     atomic.Uint64
	evicted atomic.Uint64
}

type ringEntry struct {
	mu    sync.Mutex
	ring  *Ring
	slot  any           // the serving layer's, guarded by mu (see WithSlot)
	touch atomic.Uint64 // last store-wide seq this entity was used at

	// Guarded by the store's mu.
	id    string
	pos   int    // index in order
	stamp uint64 // touch as last recorded in the lru heap
}

// lruHeap implements heap.Interface over recorded stamps.
type lruHeap []*ringEntry

func (h lruHeap) Len() int           { return len(h) }
func (h lruHeap) Less(i, j int) bool { return h[i].stamp < h[j].stamp }
func (h lruHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *lruHeap) Push(x any)        { *h = append(*h, x.(*ringEntry)) }
func (h *lruHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

// NewBoundedRingStore creates a store holding at most maxEntities
// entities (0 = unbounded). When a new entity would exceed the cap, the
// least recently used entity — the one whose ring was neither written
// nor read for the longest — is evicted, so adversarial entity churn
// cannot grow memory without bound. Evictions are counted (Evicted).
func NewBoundedRingStore(capacity, maxEntities int) *RingStore {
	if capacity <= 0 {
		panic("trace: ring capacity must be positive")
	}
	return &RingStore{capacity: capacity, maxEntities: maxEntities, rings: map[string]*ringEntry{}}
}

// Ingest routes one sample to its entity's ring, creating the ring on
// first sight. The entity key is a byte view (as handed out by ScanCSV);
// the hot path — a sample for an already-known entity — allocates
// nothing: the map lookup uses the compiler's string([]byte) key
// optimization and the ID string is materialized only on first sight.
// Returns false when the ring rejected the sample (non-advancing
// timestamp).
func (s *RingStore) Ingest(entity []byte, ts int, vals *[NumIndicators]float64) bool {
	e := s.entry(entity)
	e.mu.Lock()
	ok := e.ring.Append(ts, vals)
	e.mu.Unlock()
	return ok
}

// Sample is one row of an entity run: a timestamp and its values.
type Sample struct {
	TS   int
	Vals [NumIndicators]float64
}

// IngestRun is Ingest for consecutive samples of one entity, in order:
// one lookup, one touch and one lock for the whole run. Returns how many
// samples the ring rejected.
func (s *RingStore) IngestRun(entity []byte, run []Sample) (rejected int) {
	e := s.entry(entity)
	e.mu.Lock()
	for i := range run {
		if !e.ring.Append(run[i].TS, &run[i].Vals) {
			rejected++
		}
	}
	e.mu.Unlock()
	return rejected
}

// IngestString is Ingest for callers that already hold the ID as a
// string (e.g. a JSON ingest endpoint). Ingest copies the ID before it
// keeps it, so the byte view of the string is never written or retained.
func (s *RingStore) IngestString(entity string, ts int, vals *[NumIndicators]float64) bool {
	return s.Ingest(unsafe.Slice(unsafe.StringData(entity), len(entity)), ts, vals)
}

// entry returns the entity's ring entry, created on first sight, and
// stamps it as the store's most recent use.
func (s *RingStore) entry(entity []byte) *ringEntry {
	s.mu.RLock()
	e := s.rings[string(entity)]
	s.mu.RUnlock()
	if e == nil {
		e = s.create(string(entity))
	}
	e.touch.Store(s.seq.Add(1))
	return e
}

func (s *RingStore) create(id string) *ringEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.rings[id]; e != nil {
		return e
	}
	if s.maxEntities > 0 && len(s.rings) >= s.maxEntities {
		s.evictOldestLocked()
	}
	// Stamped here, under the lock, so a concurrent creator cannot pick
	// the newcomer as its victim before the first sample lands.
	e := &ringEntry{ring: NewRing(s.capacity), id: id, pos: len(s.order), stamp: s.seq.Add(1)}
	e.touch.Store(e.stamp)
	s.rings[id] = e
	s.order = append(s.order, e)
	heap.Push(&s.lru, e)
	return e
}

// evictOldestLocked drops the least recently touched entity. Touches
// stamp entries without the store lock, so the heap orders them by the
// stamp recorded when each was last examined: if the root has been
// touched since, its record is refreshed and it sinks; if not, it is the
// exact minimum, because every other entry's live stamp is at least its
// recorded one, which is above the root's. Callers already using the
// victim's entry via a prior lookup keep a valid (now orphaned) ring; it
// is simply no longer reachable.
func (s *RingStore) evictOldestLocked() {
	for len(s.lru) > 0 {
		e := s.lru[0]
		if cur := e.touch.Load(); cur != e.stamp {
			e.stamp = cur
			heap.Fix(&s.lru, 0)
			continue
		}
		heap.Pop(&s.lru)
		delete(s.rings, e.id)
		s.order[e.pos] = nil
		if s.dead++; s.dead*2 > len(s.order) {
			s.compactOrderLocked()
		}
		s.evicted.Add(1)
		return
	}
}

// compactOrderLocked squeezes the evicted entities' gaps out of order.
// It runs once the gaps outnumber the living, so its cost is amortized
// O(1) per eviction.
func (s *RingStore) compactOrderLocked() {
	live := s.order[:0]
	for _, e := range s.order {
		if e != nil {
			e.pos = len(live)
			live = append(live, e)
		}
	}
	clear(s.order[len(live):])
	s.order, s.dead = live, 0
}

// Evicted returns how many entities have been LRU-evicted so far.
func (s *RingStore) Evicted() uint64 { return s.evicted.Load() }

// Entities returns the entity IDs in first-seen order (copy).
func (s *RingStore) Entities() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.order)-s.dead)
	for _, e := range s.order {
		if e != nil {
			out = append(out, e.id)
		}
	}
	return out
}

// Len returns the number of entities with at least one sample.
func (s *RingStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rings)
}

// WithWindow runs fn with zero-copy views of the entity's most recent n
// samples (clamped to what the ring holds), holding the entity's lock so
// concurrent Ingest calls cannot mutate the window mid-read. fn must not
// retain the views. Returns false if the entity is unknown.
func (s *RingStore) WithWindow(entity string, n int, fn func(win [][]float64, interval, lastTS int)) bool {
	s.mu.RLock()
	e := s.rings[entity]
	s.mu.RUnlock()
	if e == nil {
		return false
	}
	e.touch.Store(s.seq.Add(1))
	e.mu.Lock()
	fn(e.ring.Window(n), e.ring.Interval(), e.ring.LastTS())
	e.mu.Unlock()
	return true
}

// WithSlot is WithWindow for the serving layer's per-entity state: fn
// also gets the number of samples the ring ever accepted (Ring.Total)
// and the entity's slot, one value the store keeps beside the ring for
// the serving layer and drops with it on eviction. fn may read and
// replace *slot while it runs, under the entity's lock; ingestion never
// touches it. The lock is released even if fn panics. Returns false if
// the entity is unknown.
func (s *RingStore) WithSlot(entity string, n int, fn func(win [][]float64, total int, slot *any)) bool {
	s.mu.RLock()
	e := s.rings[entity]
	s.mu.RUnlock()
	if e == nil {
		return false
	}
	e.touch.Store(s.seq.Add(1))
	e.mu.Lock()
	defer e.mu.Unlock()
	fn(e.ring.Window(n), e.ring.Total(), &e.slot)
	return true
}

// SampleCount returns how many samples the entity's ring currently
// holds, or 0 for an unknown entity.
func (s *RingStore) SampleCount(entity string) int {
	s.mu.RLock()
	e := s.rings[entity]
	s.mu.RUnlock()
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ring.Len()
}

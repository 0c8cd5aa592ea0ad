package shard

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/sketch"
	"repro/internal/trace"
)

// Router fans a fleet of entities out across its shards. It implements
// trace.RingSource (plus the ingest surface of trace.RingStore) by
// delegating to the per-shard stores, so it drops into the server and
// the adaptation supervisor wherever a single RingStore used to sit.
type Router struct {
	shards []*shard
	closed chan struct{}
	once   sync.Once
	// anon spreads ForecastPrepared calls that name no entity.
	anon atomic.Uint64
}

// New builds the router. It starts no goroutine: every batch runs on
// the goroutine of a request it serves (see shard.lead).
func New(cfg Config) (*Router, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	depth := make([]*obs.Gauge, cfg.Shards)
	latency := make([]*obs.Histogram, cfg.Shards)
	served := make([]*obs.Counter, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		depth[i] = cfg.Registry.Gauge("rptcn_shard_queue_depth",
			"Forecast requests pending in this shard's queue.", shardLabel(i))
		latency[i] = cfg.Registry.Histogram("rptcn_shard_latency_seconds",
			"Shard-local forecast latency, enqueue to answer.", nil, shardLabel(i))
		served[i] = cfg.Registry.Counter("rptcn_shard_requests_total",
			"Forecast requests answered by this shard.", shardLabel(i))
	}
	streams := make([][2]*obs.Counter, cfg.Shards)
	for i := range streams {
		for o := range streams[i] {
			streams[i][o] = cfg.Registry.Counter("rptcn_stream_total",
				"Entity reads of the default engine: hit (no new sample, the stored forecast) or refill (the window forwarded, its forecast stored).",
				shardLabel(i), obs.L("outcome", core.StreamOutcome(o).String()))
		}
	}
	// Get-or-create: the server's middleware ticks the same family.
	panics := cfg.Registry.Counter("rptcn_panics_recovered_total",
		"Panics recovered on the serving path instead of crashing the process.")
	// Split the fleet-wide entity cap across shards. Ceil division so
	// the aggregate cap is never below the configured one; a shard can
	// hold at most its slice, keeping memory bounded per shard even when
	// hashing is briefly uneven.
	perShardMax := 0
	if cfg.MaxEntities > 0 {
		perShardMax = (cfg.MaxEntities + cfg.Shards - 1) / cfg.Shards
	}
	r := &Router{shards: make([]*shard, cfg.Shards), closed: make(chan struct{})}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id:       i,
			engine:   cfg.Engines[i],
			streams:  streams[i],
			resolve:  cfg.Resolve,
			rings:    trace.NewBoundedRingStore(cfg.RingCapacity, perShardMax),
			log:      cfg.Log,
			maxBatch: cfg.MaxBatch,
			closing:  r.closed,
			slots:    make(chan struct{}, queueCap),
			batch:    make([]*request, 0, cfg.MaxBatch),
			depth:    depth[i],
			latency:  latency[i],
			served:   served[i],
			panics:   panics,
			digest:   sketch.NewTDigest(64),
		}
		sh.streamer, _ = sh.engine.(Streamer)
		r.shards[i] = sh
	}
	return r, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// shardOf hashes an entity to its fixed shard: FNV-1a over the raw ID
// bytes, modulo the shard count. No allocation for either key form.
func shardOf[K string | []byte](r *Router, entity K) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(entity); i++ {
		h ^= uint64(entity[i])
		h *= prime64
	}
	return r.shards[h%uint64(len(r.shards))]
}

// Forecast serves one entity's forecast through its shard's
// micro-batcher, blocking until it is answered. model == "" uses the
// shard's default engine; a named model goes through the Resolver. When
// the default engine keeps forecasts (a Streamer) and no sample arrived
// since the entity's last read, the stored forecast answers at once,
// without queueing.
func (r *Router) Forecast(entity, model string) Result {
	return r.ForecastWithin(context.Background(), time.Time{}, entity, model)
}

// ForecastWithin is Forecast with its wait for the shard bounded by ctx
// and deadline (zero: none): a request still queued when either ends
// gives up with ctx.Err() or context.DeadlineExceeded. A batch already
// running is not interrupted.
func (r *Router) ForecastWithin(ctx context.Context, deadline time.Time, entity, model string) Result {
	if r.isClosed() {
		return Result{Err: ErrClosed}
	}
	sh := shardOf(r, entity)
	if sh.keeps(model) {
		if res, ok := sh.hit(entity); ok {
			return res
		}
	}
	return sh.forecast(ctx, deadline, entity, model, nil)
}

// isClosed lets a request arriving after Close fail fast instead of
// queueing on a shard that is closing.
func (r *Router) isClosed() bool {
	select {
	case <-r.closed:
		return true
	default:
		return false
	}
}

// ForecastPrepared serves a window the caller already prepared (the
// stateless POST /v1/forecast path) on a shard's default engine: no ring
// is read, and everything after — batch fusion with that shard's other
// traffic, panic isolation, generation stamping — is Forecast's. A named
// entity goes to its own shard; requests naming none are spread
// round-robin, so with several shards they run on several engines. ctx
// and deadline bound the wait as ForecastWithin's.
func (r *Router) ForecastPrepared(ctx context.Context, deadline time.Time, entity string, in *core.PreparedInput) Result {
	if r.isClosed() {
		return Result{Err: ErrClosed}
	}
	sh := r.shards[0]
	if entity != "" {
		sh = shardOf(r, entity)
	} else if n := uint64(len(r.shards)); n > 1 {
		sh = r.shards[r.anon.Add(1)%n]
	}
	return sh.forecast(ctx, deadline, entity, "", in)
}

// Ingest routes one sample to the owning shard's ring store. Same
// contract as trace.RingStore.Ingest: zero allocations for a known
// entity, false when the sample's timestamp does not advance.
func (r *Router) Ingest(entity []byte, ts int, vals *[trace.NumIndicators]float64) bool {
	return shardOf(r, entity).rings.Ingest(entity, ts, vals)
}

// IngestRun routes consecutive samples of one entity to the owning
// shard's ring store with one hash, one lookup and one lock; see
// trace.RingStore.IngestRun. Returns how many samples were rejected.
func (r *Router) IngestRun(entity []byte, run []trace.Sample) int {
	return shardOf(r, entity).rings.IngestRun(entity, run)
}

// WithWindow implements trace.RingSource.
func (r *Router) WithWindow(entity string, n int, fn func(win [][]float64, interval, lastTS int)) bool {
	return shardOf(r, entity).rings.WithWindow(entity, n, fn)
}

// SampleCount implements trace.RingSource.
func (r *Router) SampleCount(entity string) int {
	return shardOf(r, entity).rings.SampleCount(entity)
}

// Entities implements trace.RingSource: the union of every shard's
// entities, sorted so the result is deterministic regardless of shard
// count or arrival order.
func (r *Router) Entities() []string {
	var out []string
	for _, sh := range r.shards {
		out = append(out, sh.rings.Entities()...)
	}
	sort.Strings(out)
	return out
}

// Len returns the fleet-wide entity count.
func (r *Router) Len() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.rings.Len()
	}
	return n
}

// Evicted returns the fleet-wide LRU eviction count.
func (r *Router) Evicted() uint64 {
	var n uint64
	for _, sh := range r.shards {
		n += sh.rings.Evicted()
	}
	return n
}

// Status returns every shard's point-in-time accounting, shard order.
func (r *Router) Status() []Status {
	out := make([]Status, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.status()
	}
	return out
}

// Close marks the router closed and takes every shard's lead, waiting
// for a batch in flight to finish (its requests are answered for real).
// Requests still queued are answered with ErrClosed; Close is idempotent
// and later Forecast calls fail fast.
func (r *Router) Close() {
	r.once.Do(func() {
		close(r.closed)
		for _, sh := range r.shards {
			sh.close()
		}
	})
}

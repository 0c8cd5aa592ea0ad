package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/registry"
	"repro/internal/shard"
)

// Sharded serving: every forecast — POST /v1/forecast with the window in
// the body, GET /v1/forecast/{entity} from an ingested ring — runs on the
// entity→shard router (internal/shard), the process's one micro-batcher.
// Each shard owns its entities' rings, its queue and its own engine
// (core.ShardInferencer) over the predictor's one published model, so N
// shards run N forwards in parallel and a hot-swap reaches every shard
// on its next batch without stalling any. One shard is the same code
// with N = 1. Because every forward kernel is row-independent
// (TestGemmRowIndependence, the core batching suite), each request's
// answer is bitwise identical to running it alone — fusion buys GEMM
// efficiency without changing a single output.

// BatchConfig tunes request micro-batching. The zero value gets the
// default — batching is always on (MaxBatch 1 disables fusion while
// keeping the single serialized inference pipeline per shard).
type BatchConfig struct {
	// MaxBatch caps how many requests fuse into one forward (default 32,
	// matching the default MaxInFlight — one full batch per admission
	// window).
	MaxBatch int
	// MaxDelay is accepted and ignored: the gather is greedy, a leader
	// serves what is queued and never waits for stragglers. The field
	// survives only because benchmark/fixture.go:59 sets it (2 ms) and
	// only a benchmark PR may edit that file; honouring the value would
	// put the whole delay back on every lone POST. It goes when that
	// file stops naming it.
	MaxDelay time.Duration
}

// WithBatching overrides the micro-batching parameters.
func WithBatching(cfg BatchConfig) Option {
	return func(s *Server) { s.batchCfg = cfg }
}

// ShardConfig tunes the shard router.
type ShardConfig struct {
	// Shards is the shard count; entities hash to a fixed shard
	// (default 1).
	Shards int
}

// WithSharding overrides the sharded-serving parameters.
func WithSharding(cfg ShardConfig) Option {
	return func(s *Server) { s.shardCfg = cfg }
}

// WithModelRegistry serves GET /v1/forecast/{entity}?model=<name> from
// the latest published version of <name> in cache's store, keeping hot
// models resident with warmed inference arenas. Without this option the
// model query parameter is rejected.
func WithModelRegistry(cache *registry.Cache) Option {
	return func(s *Server) { s.modelCache = cache }
}

// buildRouter assembles the shard router every forecast is served on,
// one engine per shard.
func (s *Server) buildRouter() (*shard.Router, error) {
	engines := make([]shard.Engine, max(s.shardCfg.Shards, 1))
	for i := range engines {
		engines[i] = s.predictor.NewShardInferencer()
	}
	var resolve shard.Resolver
	if s.modelCache != nil {
		cache := s.modelCache
		resolve = func(model string) (shard.Engine, func(), error) {
			h, err := cache.Acquire(model)
			if err != nil {
				return nil, nil, err
			}
			return h.Predictor(), h.Release, nil
		}
	}
	return shard.New(shard.Config{
		Shards:       len(engines),
		MaxBatch:     s.batchCfg.MaxBatch,
		RingCapacity: s.ringCap,
		MaxEntities:  s.ingestCfg.MaxEntities,
		Engines:      engines,
		Resolve:      resolve,
		Registry:     s.reg,
		Log:          s.log,
	})
}

// ShardsStatus is the /debug/shards response body.
type ShardsStatus struct {
	Shards     int                  `json:"shards"`
	Entities   int                  `json:"entities"`
	Evicted    uint64               `json:"evicted"`
	ModelCache *registry.CacheStats `json:"model_cache,omitempty"`
	PerShard   []shard.Status       `json:"per_shard"`
}

// handleShards serves GET /debug/shards: per-shard occupancy, queue
// depth, request totals, and latency quantiles — the balance view the
// fleet drill asserts on.
func (s *Server) handleShards(w http.ResponseWriter, _ *http.Request) {
	st := ShardsStatus{
		Shards:   s.rings.Shards(),
		Entities: s.rings.Len(),
		Evicted:  s.rings.Evicted(),
		PerShard: s.rings.Status(),
	}
	if s.modelCache != nil {
		cs := s.modelCache.Stats()
		st.ModelCache = &cs
	}
	s.writeJSON(w, http.StatusOK, st)
}

// parseListParams reads the ?limit= / ?after= pagination parameters for
// GET /v1/entities. limit ≤ 0 (or absent) means no bound.
func parseListParams(r *http.Request) (limit int, after string, err error) {
	q := r.URL.Query()
	after = q.Get("after")
	if raw := q.Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 0 {
			return 0, "", fmt.Errorf("invalid limit %q: must be a non-negative integer", raw)
		}
	}
	return limit, after, nil
}

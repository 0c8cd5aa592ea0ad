package server

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/registry"
	"repro/internal/shard"
)

// Fleet-scale sharded serving: the per-entity serving path (/v1/ingest,
// GET /v1/forecast/{entity}) runs on an entity→shard router
// (internal/shard) instead of one global ring store + one global
// micro-batcher. Each shard owns its entities' rings and its own
// batcher; with Shards > 1 each also owns a private model replica, so N
// workers run N forwards in parallel and a hot-swap on the shared
// predictor never convoys entity traffic. Shards == 1 with the shared
// predictor as the engine is exactly the old path — same rings, same
// batch fusion, bitwise-identical responses.

// ShardConfig tunes the sharded entity-serving path.
type ShardConfig struct {
	// Shards is the worker count; entities hash to a fixed shard.
	// Default 1 — the degenerate path, serving on the shared predictor.
	Shards int
	// QueueCap bounds each shard's pending-forecast queue (default 64).
	QueueCap int
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

// buildRouter assembles the shard router for the entity serving path.
// Single shard → the shared predictor; multiple shards → one private
// replica per shard.
func (s *Server) buildRouter() (*shard.Router, error) {
	if s.shardCfg.Shards <= 0 {
		s.shardCfg.Shards = 1
	}
	engines := make([]shard.Engine, s.shardCfg.Shards)
	if s.shardCfg.Shards == 1 {
		engines[0] = s.predictor
	} else {
		for i := range engines {
			engines[i] = s.predictor.NewShardInferencer()
		}
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
	// MaxDelay stays zero: shard workers gather greedily. The JSON-path
	// batcher keeps its delay-gather (POST bodies arrive one forward per
	// connection and fusion is worth a bounded wait there); the entity
	// path's backlog is its batch, and idle-waiting for stragglers costs
	// over 2x throughput at the fleet operating point (BenchmarkFleetDelay8).
	return shard.New(shard.Config{
		Shards:       s.shardCfg.Shards,
		QueueCap:     s.shardCfg.QueueCap,
		MaxBatch:     s.batchCfg.MaxBatch,
		RingCapacity: s.ingestCfg.RingCapacity,
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

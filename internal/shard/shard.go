// Package shard routes a fleet of entities across N single-owner
// serving workers. Every entity hashes to a fixed shard; the shard owns
// that entity's ingestion ring, pending-forecast queue, a private
// micro-batcher and its own engine, so the hot path — ingest a sample,
// serve a forecast — touches only shard-local state and the per-entity
// ring locks, never a cross-shard lock. With an engine per shard
// (core.ShardInferencer, every one reading the predictor's one published
// model) the N workers run N forwards truly in parallel. One shard is the
// same router with N = 1: a configuration, not a code path.
//
// The workers are the process's only micro-batcher. A ring-backed
// request (Forecast) and a stateless one whose window the caller already
// prepared (ForecastPrepared, the POST /v1/forecast path) queue on the
// same shard, fuse into the same forward and share one gather policy:
// greedy — serve whatever is queued the moment the worker picks up the
// first request, never idle-wait for stragglers.
package shard

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/sketch"
	"repro/internal/trace"
)

// Engine is the inference surface one shard serves with. Satisfied by
// *core.ShardInferencer, the engine each shard owns, and by
// *core.Predictor, whose own engine serializes its callers (the registry
// resolver hands out loaded predictors as engines).
type Engine interface {
	MinHistory() int
	PrepareInput(series [][]float64) (*core.PreparedInput, error)
	ForecastBatchGen(inputs []*core.PreparedInput) ([][]float64, int64, error)
}

// Streamer is an engine that keeps each entity's last forecast in the
// slot beside its ring (see core.ShardInferencer.StreamHit). A shard
// whose default engine is one answers a ring-backed read of it with no
// new sample from that slot, without queueing, and stores every other
// such read's forecast there once its batch has run.
type Streamer interface {
	StreamHit(dst []float64, total int, slot *any) ([]float64, int64, bool)
	StreamKeep(state any, total int, forecast []float64)
}

// Resolver maps a request's model name to a serving engine — the
// multi-model hook, backed by internal/registry in the server. The
// returned release func is called when the batch that used the engine
// is done; it may be nil. Resolvers must be safe for concurrent use
// (each shard worker resolves independently).
type Resolver func(model string) (Engine, func(), error)

// Errors surfaced on Result.Err. The server maps ErrUnknownEntity to 404
// and ErrClosed to 503.
var (
	ErrUnknownEntity = errors.New("shard: unknown entity")
	ErrClosed        = errors.New("shard: router closed")
)

// Config configures a Router.
type Config struct {
	// Shards is the worker count; every entity hashes to one fixed
	// shard (default 1).
	Shards int
	// MaxBatch caps how many pending forecasts fuse into one forward
	// (default 32).
	MaxBatch int
	// RingCapacity is samples retained per entity ring (required > 0).
	RingCapacity int
	// MaxEntities caps ring-holding entities fleet-wide; the cap is
	// split evenly across shards (each shard LRU-evicts independently).
	// 0 = unbounded.
	MaxEntities int
	// Engines holds one serving engine per shard (len must equal
	// Shards): a core.ShardInferencer each.
	Engines []Engine
	// Resolve, when set, serves requests that name a model (the
	// multi-model path). An empty model name always uses the shard's
	// own engine.
	Resolve Resolver
	// Registry receives the per-shard metrics and the process-wide
	// rptcn_panics_recovered_total family (default obs.Default()).
	Registry *obs.Registry
	// Log receives worker lifecycle and panic reports.
	Log *slog.Logger
}

func (c *Config) fillDefaults() error {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.RingCapacity <= 0 {
		return errors.New("shard: Config.RingCapacity is required")
	}
	if len(c.Engines) != c.Shards {
		return fmt.Errorf("shard: %d engines for %d shards", len(c.Engines), c.Shards)
	}
	for i, e := range c.Engines {
		if e == nil {
			return fmt.Errorf("shard: nil engine for shard %d", i)
		}
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Log == nil {
		c.Log = obs.Logger("shard")
	}
	return nil
}

// queueCap bounds each shard's pending-forecast queue. Producers block
// when a shard's queue is full, which bounds memory under overload; the
// server's admission limiter keeps in-flight requests (32 by default)
// under it.
const queueCap = 64

// Result is one forecast's outcome.
type Result struct {
	Forecast []float64
	Gen      int64
	Err      error
	Panicked bool
}

// request is one pending forecast in a shard's queue. in is set when
// the caller already holds the prepared window (ForecastPrepared); the
// worker then skips the ring read and serves it on the default engine.
type request struct {
	entity   string
	model    string
	in       *core.PreparedInput
	done     chan Result // buffered 1: the worker never blocks on a gone waiter
	enqueued time.Time
	kept     kept // where a ring-backed read's forecast is stored; zero: nowhere
}

// shard is one worker: its entities' rings, its pending-forecast queue,
// and the batcher loop that drains it. Single consumer — the worker
// goroutine owns the engine, so engines need no synchronization (a
// Streamer's StreamHit is safe from any goroutine).
type shard struct {
	id       int
	engine   Engine
	streamer Streamer // engine, when it keeps forecasts
	resolve  Resolver
	rings    *trace.RingStore
	log      *slog.Logger

	queue    chan *request
	stop     chan struct{}
	stopped  chan struct{}
	maxBatch int

	// Accounting. requests/batches are atomics because Status() reads
	// them from other goroutines; the digest needs a lock for the same
	// reason.
	depth    *obs.Gauge
	latency  *obs.Histogram
	served   *obs.Counter
	panics   *obs.Counter // process-wide family, shared by every shard
	requests atomic.Uint64
	batches  atomic.Uint64
	digestMu sync.Mutex
	digest   *sketch.TDigest
	// streams counts the default engine's ring-backed reads by
	// core.StreamOutcome.
	streams [2]*obs.Counter
}

// forecast enqueues one request and blocks for its result.
func (sh *shard) forecast(entity, model string, in *core.PreparedInput) Result {
	r := &request{entity: entity, model: model, in: in, done: make(chan Result, 1), enqueued: time.Now()}
	sh.depth.Inc()
	select {
	case sh.queue <- r:
	case <-sh.stopped:
		sh.depth.Dec()
		return Result{Err: ErrClosed}
	}
	select {
	case res := <-r.done:
		return res
	case <-sh.stopped:
		// The worker may have answered in the same instant it shut
		// down; prefer a real answer over the shutdown error.
		select {
		case res := <-r.done:
			return res
		default:
			return Result{Err: ErrClosed}
		}
	}
}

// run is the worker loop: block for the first pending forecast, gather
// batch-mates, serve the fused batch, repeat. The gather is greedy —
// take everything already queued (up to maxBatch) and go; clients
// blocked on earlier batches re-enqueue while a batch computes, so the
// backlog the worker finds on its next pass is the natural batch and the
// worker never parks with work pending. (Idle-waiting a delay for
// stragglers measured at under half the throughput at the fleet
// operating point and put the whole delay on every lone request; see
// EXPERIMENTS.md, "Fleet sharding on one core".)
func (sh *shard) run() {
	defer close(sh.stopped)
	batch := make([]*request, 0, sh.maxBatch)
	for {
		var first *request
		select {
		case first = <-sh.queue:
		case <-sh.stop:
			sh.drain()
			return
		}
		batch = sh.gatherGreedy(append(batch[:0], first))
		sh.runBatch(batch)
		select {
		case <-sh.stop:
			sh.drain()
			return
		default:
		}
	}
}

// gatherGreedy drains the queue non-blocking up to maxBatch.
func (sh *shard) gatherGreedy(batch []*request) []*request {
	for len(batch) < sh.maxBatch {
		select {
		case r := <-sh.queue:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// drain answers everything still queued with ErrClosed (worker
// goroutine only, after stop).
func (sh *shard) drain() {
	for {
		select {
		case r := <-sh.queue:
			sh.depth.Dec()
			r.done <- Result{Err: ErrClosed}
		default:
			return
		}
	}
}

// engineGroup collects the batch members served by one engine, in
// arrival order.
type engineGroup struct {
	engine  Engine
	release func()
	reqs    []*request
	inputs  []*core.PreparedInput
}

// kept is where a read's forecast is stored once its batch has run: the
// state StreamHit left in the entity's slot and the ring's sample count
// when the window was read.
type kept struct {
	state any
	total int
}

// runBatch serves one fused batch: read each entity's ring window and
// prepare it (a request that arrived prepared skips both), group by
// engine (the default engine plus any resolved models), run one forward
// per group, and fan results back out. Client errors (unknown entity,
// short history, unknown model) are answered individually and never
// poison batch-mates; an engine panic poisons only that engine's group.
func (sh *shard) runBatch(reqs []*request) {
	sh.depth.Add(-float64(len(reqs)))
	sh.batches.Add(1)
	sh.requests.Add(uint64(len(reqs)))

	groups := make([]*engineGroup, 0, 2)
	groupOf := func(model string) (*engineGroup, error) {
		var eng Engine
		var release func()
		if model == "" || sh.resolve == nil {
			eng = sh.engine
		} else {
			var err error
			eng, release, err = sh.resolve(model)
			if err != nil {
				return nil, err
			}
		}
		for _, g := range groups {
			if g.engine == eng {
				if release != nil {
					release() // group already holds a reference
				}
				return g, nil
			}
		}
		g := &engineGroup{engine: eng, release: release}
		groups = append(groups, g)
		return g, nil
	}

	for _, r := range reqs {
		g, err := groupOf(r.model)
		if err != nil {
			sh.answer(r, Result{Err: err})
			continue
		}
		if r.in != nil {
			g.reqs = append(g.reqs, r)
			g.inputs = append(g.inputs, r.in)
			continue
		}
		var (
			in   *core.PreparedInput
			perr error
			hit  Result
			ok   bool
		)
		keeps := sh.keeps(r.model)
		found := sh.rings.WithSlot(r.entity, g.engine.MinHistory(), func(win [][]float64, total int, slot *any) {
			if keeps {
				// A batch-mate or an earlier batch may have stored this
				// very forecast since the read queued.
				if hit.Forecast, hit.Gen, ok = sh.streamer.StreamHit(nil, total, slot); ok {
					return
				}
				r.kept = kept{state: *slot, total: total}
			}
			in, perr = g.engine.PrepareInput(win)
		})
		switch {
		case !found:
			sh.answer(r, Result{Err: fmt.Errorf("%w: %q", ErrUnknownEntity, r.entity)})
		case ok:
			sh.streams[core.StreamHit].Inc()
			sh.answer(r, hit)
		case perr != nil:
			sh.answer(r, Result{Err: perr})
		default:
			g.reqs = append(g.reqs, r)
			g.inputs = append(g.inputs, in)
		}
	}

	for _, g := range groups {
		sh.runGroup(g)
		if g.release != nil {
			g.release()
		}
	}
}

// keeps reports whether the reads of model go through the default
// engine's stored forecasts.
func (sh *shard) keeps(model string) bool {
	return sh.streamer != nil && (model == "" || sh.resolve == nil)
}

// hit answers an entity read with no new sample since its forecast was
// stored, from the calling goroutine: a copy of the stored forecast, and
// no queue, batch or forward. ok is false when there is none current,
// and the read must queue.
func (sh *shard) hit(entity string) (res Result, ok bool) {
	start := time.Now()
	sh.rings.WithSlot(entity, 0, func(_ [][]float64, total int, slot *any) {
		res.Forecast, res.Gen, ok = sh.streamer.StreamHit(nil, total, slot)
	})
	if ok {
		sh.requests.Add(1)
		sh.streams[core.StreamHit].Inc()
		sh.observe(time.Since(start))
	}
	return res, ok
}

// keep stores fc, the forecast of a read the default engine just ran,
// in the state k names, under the lock of the entity whose slot holds
// it. When the ring was evicted since the read, the state went with it
// and is left alone: its lock is not the one this entity's ring has now.
func (sh *shard) keep(entity string, k kept, fc []float64) {
	sh.rings.WithSlot(entity, 0, func(_ [][]float64, _ int, slot *any) {
		if *slot == k.state {
			sh.streamer.StreamKeep(k.state, k.total, fc)
		}
	})
}

// runGroup runs one engine's share of the batch with panic isolation. A
// panic poisons the whole group — every member reports Panicked and
// degrades at its own call site — but rptcn_panics_recovered_total ticks
// once: one fault, one event.
func (sh *shard) runGroup(g *engineGroup) {
	if len(g.reqs) == 0 {
		return
	}
	var (
		out      [][]float64
		gen      int64
		err      error
		panicked bool
	)
	func() {
		defer func() {
			if p := recover(); p != nil {
				panicked = true
				sh.panics.Inc()
				sh.log.Error("panic recovered in shard inference",
					"shard", sh.id, "batch", len(g.reqs), "panic", p, "stack", string(debug.Stack()))
			}
		}()
		out, gen, err = g.engine.ForecastBatchGen(g.inputs)
	}()
	for i, r := range g.reqs {
		res := Result{Gen: gen, Err: err, Panicked: panicked}
		if !panicked && err == nil {
			res.Forecast = out[i]
			if r.kept.state != nil {
				sh.keep(r.entity, r.kept, out[i])
				sh.streams[core.StreamRefill].Inc()
			}
		}
		sh.answer(r, res)
	}
}

// answer completes one request and records its end-to-end shard latency
// (enqueue → answered).
func (sh *shard) answer(r *request, res Result) {
	sh.observe(time.Since(r.enqueued))
	r.done <- res
}

// observe records one answered forecast's shard latency.
func (sh *shard) observe(lat time.Duration) {
	sh.latency.Observe(lat.Seconds())
	sh.served.Inc()
	sh.digestMu.Lock()
	sh.digest.Add(float64(lat.Nanoseconds()))
	sh.digestMu.Unlock()
}

// Status is one shard's point-in-time accounting, surfaced on
// /debug/shards and asserted by the fleetreplay drill.
type Status struct {
	Shard      int     `json:"shard"`
	Entities   int     `json:"entities"`
	QueueDepth int     `json:"queue_depth"`
	Requests   uint64  `json:"requests"`
	Batches    uint64  `json:"batches"`
	Evicted    uint64  `json:"evicted"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	MaxMicros  float64 `json:"max_us"`
	// Stream is how the default engine's entity reads were served.
	Stream StreamStatus `json:"stream"`
}

// StreamStatus counts a shard's entity reads of the default engine and
// the share of them each outcome took (see core.StreamOutcome).
type StreamStatus struct {
	Reads  uint64  `json:"reads"`
	Hit    float64 `json:"hit"`
	Refill float64 `json:"refill"`
}

func (sh *shard) status() Status {
	st := Status{
		Shard:      sh.id,
		Entities:   sh.rings.Len(),
		QueueDepth: len(sh.queue),
		Evicted:    sh.rings.Evicted(),
		Requests:   sh.requests.Load(),
		Batches:    sh.batches.Load(),
	}
	hit, ref := sh.streams[core.StreamHit].Value(), sh.streams[core.StreamRefill].Value()
	if n := hit + ref; n > 0 {
		st.Stream = StreamStatus{Reads: uint64(n), Hit: hit / n, Refill: ref / n}
	}
	sh.digestMu.Lock()
	if sh.digest.Count() > 0 {
		st.P50Micros = sh.digest.Quantile(0.50) / 1e3
		st.P99Micros = sh.digest.Quantile(0.99) / 1e3
		st.MaxMicros = sh.digest.Max() / 1e3
	}
	sh.digestMu.Unlock()
	return st
}

func shardLabel(i int) obs.Label { return obs.L("shard", strconv.Itoa(i)) }

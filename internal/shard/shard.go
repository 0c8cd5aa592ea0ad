// Package shard routes a fleet of entities across N single-owner
// serving shards. Every entity hashes to a fixed shard; the shard owns
// that entity's ingestion ring, pending-forecast queue, a private
// micro-batcher and its own engine, so the hot path — ingest a sample,
// serve a forecast — touches only shard-local state and the per-entity
// ring locks, never a cross-shard lock. With an engine per shard
// (core.ShardInferencer, every one reading the predictor's one published
// model) N shards run N forwards truly in parallel. One shard is the
// same router with N = 1: a configuration, not a code path.
//
// The shards are the process's only micro-batcher, and they have no
// goroutines: a request that finds its shard idle takes the shard's lead
// and runs the batch on its own goroutine — its own request plus
// whatever queued meanwhile — then hands the lead to the first request
// still queued. A ring-backed request (Forecast) and a stateless one
// whose window the caller already prepared (ForecastPrepared, the POST
// /v1/forecast path) queue on the same shard, fuse into the same forward
// and share one gather policy: greedy — serve whatever is queued the
// moment the leader starts, never idle-wait for stragglers.
package shard

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
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
// (each shard's leader resolves independently).
type Resolver func(model string) (Engine, func(), error)

// Errors surfaced on Result.Err. The server maps ErrUnknownEntity to 404
// and ErrClosed to 503.
var (
	ErrUnknownEntity = errors.New("shard: unknown entity")
	ErrClosed        = errors.New("shard: router closed")
)

// Config configures a Router.
type Config struct {
	// Shards is the shard count; every entity hashes to one fixed shard
	// (default 1).
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
	// Log receives panic reports.
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

// A queued request's state: waiting for a leader, taken by one (into
// its batch, or handed the lead), or abandoned by its caller. The first
// CAS out of waiting decides.
const (
	waiting int32 = iota
	taken
	abandoned
)

// request is one forecast on its way through a shard. in is set when
// the caller already holds the prepared window (ForecastPrepared); the
// leader then skips the ring read and serves it on the default engine.
type request struct {
	entity   string
	model    string
	in       *core.PreparedInput
	enqueued time.Time
	kept     kept // where a ring-backed read's forecast is stored; zero: nowhere

	// res is the answer, written by the leader whose batch holds the
	// request; answered marks it, for that leader alone.
	res      Result
	answered bool
	// done wakes a queued request's caller (buffered 1, so a leader never
	// blocks on it): with res written, or with lead set — the lead was
	// handed here and the caller runs the next batch. A leader's own
	// request never queues and has none.
	done  chan struct{}
	lead  bool
	state atomic.Int32
}

// shard is one slice of the fleet: its entities' rings, its queue of
// pending forecasts and its engine. It has no goroutine of its own: a
// request that finds the shard idle takes its lead and runs one batch —
// its own request and whatever is queued — on its caller's goroutine,
// then hands the lead to the first queued request. One goroutine holds
// the lead at a time, so the engine needs no synchronization (a
// Streamer's StreamHit is safe from any goroutine).
type shard struct {
	id       int
	engine   Engine
	streamer Streamer // engine, when it keeps forecasts
	resolve  Resolver
	rings    *trace.RingStore
	log      *slog.Logger
	maxBatch int
	closing  <-chan struct{} // the router's, closed by Close

	// mu guards the lead and the queue. leading is true while a request
	// goroutine runs a batch, and for good once Close took the lead; idle,
	// when Close waits for a leader, is closed as that leader lets go.
	mu      sync.Mutex
	leading bool
	closed  bool
	idle    chan struct{}
	queue   [queueCap]*request // FIFO ring, n from head
	head, n int
	// callers counts the requests inside forecast, the lead holder's
	// included.
	callers atomic.Int32
	// slots holds a token per queued request: a producer that finds
	// queueCap queued blocks for one.
	slots chan struct{}

	// Scratch of the lead, reused batch to batch.
	batch  []*request
	groups []engineGroup

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

// forecast serves one request: at once, as the shard's leader, when the
// shard is idle, else from the queue (see wait).
func (sh *shard) forecast(ctx context.Context, deadline time.Time, entity, model string, in *core.PreparedInput) Result {
	sh.callers.Add(1)
	defer sh.callers.Add(-1)
	r := &request{entity: entity, model: model, in: in, enqueued: time.Now()}
	sh.mu.Lock()
	switch {
	case sh.closed:
		sh.mu.Unlock()
		return Result{Err: ErrClosed}
	case !sh.leading:
		sh.leading = true
		sh.mu.Unlock()
		sh.lead(r)
		return r.res
	}
	sh.mu.Unlock()
	return sh.wait(ctx, deadline, r)
}

// wait queues r behind the shard's leader and blocks until a leader
// answers it or hands it the lead. ctx and deadline (zero: none) bound
// the wait: a request that gives them up before a leader took it is
// abandoned — leaders skip it — and answers ctx.Err() or
// context.DeadlineExceeded. One a leader took first is waited for: its
// answer, or the batch it was handed, comes promptly.
func (sh *shard) wait(ctx context.Context, deadline time.Time, r *request) Result {
	var expired <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	select {
	case sh.slots <- struct{}{}:
	case <-ctx.Done():
		return Result{Err: ctx.Err()}
	case <-expired:
		return Result{Err: context.DeadlineExceeded}
	case <-sh.closing:
		return Result{Err: ErrClosed}
	}
	r.done = make(chan struct{}, 1)
	sh.mu.Lock()
	switch {
	case sh.closed:
		sh.mu.Unlock()
		<-sh.slots
		return Result{Err: ErrClosed}
	case !sh.leading:
		// The leader let go while this request waited for its slot.
		sh.leading = true
		sh.mu.Unlock()
		<-sh.slots
		sh.lead(r)
		return r.res
	}
	sh.queue[(sh.head+sh.n)%queueCap] = r
	sh.n++
	sh.depth.Inc()
	sh.mu.Unlock()
	select {
	case <-r.done:
	case <-ctx.Done():
		if r.state.CompareAndSwap(waiting, abandoned) {
			return Result{Err: ctx.Err()}
		}
		<-r.done
	case <-expired:
		if r.state.CompareAndSwap(waiting, abandoned) {
			return Result{Err: context.DeadlineExceeded}
		}
		<-r.done
	}
	if r.lead {
		sh.lead(r)
	}
	return r.res
}

// lead runs the one batch the lead holder is part of: r, plus what is
// queued when it starts — the greedy gather: take everything already
// waiting (up to maxBatch) and go, never idle-wait for stragglers.
// Callers blocked on earlier batches queue again while a batch computes,
// so the backlog the next leader finds is the natural batch. (Waiting a
// delay for stragglers measured at under half the throughput at the
// fleet operating point and put the whole delay on every lone request;
// see EXPERIMENTS.md, "Fleet sharding on one core".) It then hands the
// lead on, yielding its P when other callers are in the shard. Every
// member is answered even if the batch panics outside an engine's
// forward.
func (sh *shard) lead(r *request) {
	batch := append(sh.batch[:0], r)
	sh.mu.Lock()
	if sh.closed {
		// Close came while the lead was being handed to r: Close waits
		// for this holder, which starts no new batch.
		sh.mu.Unlock()
		r.res = Result{Err: ErrClosed}
		sh.handOff()
		return
	}
	for len(batch) < sh.maxBatch {
		q := sh.pop()
		if q == nil {
			break
		}
		batch = append(batch, q)
	}
	sh.mu.Unlock()
	sh.runBatchRecovered(batch)
	clear(batch)
	sh.batch = batch[:0]
	sh.handOff()
	// A leader never blocks. While other callers are inside the shard —
	// batch-mates it just answered have yet to run — one that went on to
	// lead its caller's next request, and the next, would keep its P
	// until preempted while they wait: yield once. A lone caller does
	// not, and leaves what else is runnable (the collector, the quality
	// engine) for when its request is done.
	if sh.callers.Load() > 1 {
		runtime.Gosched()
	}
}

// pop takes the first queued request a leader can still have, skipping
// abandoned ones, or returns nil (mu held).
func (sh *shard) pop() *request {
	for sh.n > 0 {
		r := sh.queue[sh.head]
		sh.queue[sh.head] = nil
		sh.head = (sh.head + 1) % queueCap
		sh.n--
		<-sh.slots // r's own token: never blocks
		sh.depth.Dec()
		if r.state.CompareAndSwap(waiting, taken) {
			return r
		}
	}
	return nil
}

// handOff lets go of the lead: to the first queued request, which runs
// the next batch, or — with none queued — back to idle. After Close it
// answers every queued request ErrClosed instead and keeps the lead.
func (sh *shard) handOff() {
	sh.mu.Lock()
	if sh.closed {
		sh.refuseQueued()
		if sh.idle != nil {
			close(sh.idle)
		}
		sh.mu.Unlock()
		return
	}
	next := sh.pop()
	if next == nil {
		sh.leading = false
	}
	sh.mu.Unlock()
	if next != nil {
		next.lead = true
		next.done <- struct{}{}
	}
}

// refuseQueued answers everything still queued with ErrClosed (mu held,
// after Close).
func (sh *shard) refuseQueued() {
	for r := sh.pop(); r != nil; r = sh.pop() {
		r.res = Result{Err: ErrClosed}
		r.done <- struct{}{} // its first and only send: never blocks
	}
}

// close marks the shard closed and takes its lead — once the batch in
// flight, if any, is done — answering every queued request ErrClosed.
func (sh *shard) close() {
	sh.mu.Lock()
	sh.closed = true
	if sh.leading {
		idle := make(chan struct{})
		sh.idle = idle
		sh.mu.Unlock()
		<-idle
		return
	}
	sh.leading = true
	sh.refuseQueued()
	sh.mu.Unlock()
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

// runBatchRecovered runs one batch; a panic outside an engine's forward
// (runGroup isolates those) answers every member not yet answered
// Panicked, ticks rptcn_panics_recovered_total once, and leaves the lead
// to be handed on.
func (sh *shard) runBatchRecovered(reqs []*request) {
	defer func() {
		if p := recover(); p != nil {
			sh.panics.Inc()
			sh.log.Error("panic recovered in shard batch",
				"shard", sh.id, "batch", len(reqs), "panic", p, "stack", string(debug.Stack()))
			for _, r := range reqs {
				if !r.answered {
					sh.answer(r, Result{Panicked: true})
				}
			}
		}
	}()
	sh.runBatch(reqs)
}

// runBatch serves one fused batch: read each entity's ring window and
// prepare it (a request that arrived prepared skips both), group by
// engine (the default engine plus any resolved models), run one forward
// per group, and fan results back out. Client errors (unknown entity,
// short history, unknown model) are answered individually and never
// poison batch-mates; an engine panic poisons only that engine's group.
func (sh *shard) runBatch(reqs []*request) {
	sh.batches.Add(1)
	sh.requests.Add(uint64(len(reqs)))

	groups := sh.groups[:0]
	defer func() {
		for i := range groups {
			g := &groups[i]
			if g.release != nil {
				g.release()
			}
			clear(g.reqs)
			clear(g.inputs)
			*g = engineGroup{reqs: g.reqs[:0], inputs: g.inputs[:0]}
		}
		sh.groups = groups[:0]
	}()
	groupOf := func(model string) (*engineGroup, error) {
		eng := sh.engine
		var release func()
		if model != "" && sh.resolve != nil {
			var err error
			eng, release, err = sh.resolve(model)
			if err != nil {
				return nil, err
			}
		}
		for i := range groups {
			if groups[i].engine == eng {
				if release != nil {
					release() // group already holds a reference
				}
				return &groups[i], nil
			}
		}
		if len(groups) < cap(groups) {
			groups = groups[:len(groups)+1]
		} else {
			groups = append(groups, engineGroup{})
		}
		g := &groups[len(groups)-1]
		g.engine, g.release = eng, release
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

	for i := range groups {
		sh.runGroup(&groups[i])
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
// (arrival → answered). A queued request's caller may read r as soon as
// done is sent, so nothing writes r after.
func (sh *shard) answer(r *request, res Result) {
	sh.observe(time.Since(r.enqueued))
	r.res, r.answered = res, true
	if r.done != nil {
		r.done <- struct{}{}
	}
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
	sh.mu.Lock()
	queued := sh.n
	sh.mu.Unlock()
	st := Status{
		Shard:      sh.id,
		Entities:   sh.rings.Len(),
		QueueDepth: queued,
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

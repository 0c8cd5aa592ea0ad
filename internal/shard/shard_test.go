package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

var fixture struct {
	once   sync.Once
	p      *core.Predictor
	alt    *core.Predictor
	entity *trace.EntitySeries
	err    error
}

// fitted returns a shared fitted predictor (plus a second, differently
// seeded one for multi-model tests) and the entity it trained on.
func fitted(t testing.TB) (*core.Predictor, *core.Predictor, *trace.EntitySeries) {
	t.Helper()
	fixture.once.Do(func() {
		e := trace.Generate(trace.GeneratorConfig{
			Entities: 1, Kind: trace.Container, Samples: 500, Seed: 1,
		})[0]
		mk := func(seed uint64) (*core.Predictor, error) {
			p := core.NewPredictor(core.PredictorConfig{
				Scenario: core.MulExp, Window: 12, Horizon: 3, Epochs: 2, Seed: seed,
				Model: core.Config{Channels: []int{6, 6}, KernelSize: 3, WeightNorm: true, FCWidth: 8},
			})
			if err := p.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
				return nil, err
			}
			return p, nil
		}
		fixture.entity = e
		if fixture.p, fixture.err = mk(2); fixture.err != nil {
			return
		}
		fixture.alt, fixture.err = mk(77)
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.p, fixture.alt, fixture.entity
}

// feed streams the last `samples` samples of the fixture entity into the
// router under the given ID.
func feed(r *Router, e *trace.EntitySeries, id string, samples int) {
	n := len(e.Metrics[0])
	if samples > n {
		samples = n
	}
	for i := n - samples; i < n; i++ {
		var vals [trace.NumIndicators]float64
		for c := 0; c < trace.NumIndicators; c++ {
			vals[c] = e.Metrics[c][i]
		}
		r.IngestString(id, (i+1)*10, &vals)
	}
}

// directForecast computes the forecast the predictor itself would serve
// for the entity's trailing window (the reference the router must match
// bitwise).
func directForecast(t *testing.T, p *core.Predictor, e *trace.EntitySeries) []float64 {
	t.Helper()
	out, _, err := p.ForecastBatchGen([]*core.PreparedInput{preparedTail(t, p, e)})
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// preparedTail is the fixture entity's trailing window prepared on the
// request side, as POST /v1/forecast does before it enqueues.
func preparedTail(t *testing.T, p *core.Predictor, e *trace.EntitySeries) *core.PreparedInput {
	t.Helper()
	need := p.MinHistory()
	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		s := e.Metrics[i]
		tail[i] = s[len(s)-need:]
	}
	in, err := p.PrepareInput(tail)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func newRouter(t *testing.T, p *core.Predictor, shards int, opts ...func(*Config)) *Router {
	t.Helper()
	engines := make([]Engine, shards)
	for i := range engines {
		engines[i] = p.NewShardInferencer()
	}
	cfg := Config{
		Shards:       shards,
		RingCapacity: 2 * p.MinHistory(),
		Engines:      engines,
		Registry:     obs.NewRegistry(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func requireBitwise(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %g vs %g", name, i, got[i], want[i])
		}
	}
}

// parkEngine serves through a real predictor, but its first forward
// signals entered and then waits for release — parking the leader inside
// its batch so a test can queue a known backlog behind it and force the
// next leader to fuse it. sizes records every batch (read it only after
// the answers are in); with boom set, every forward after the first
// panics.
type parkEngine struct {
	*core.Predictor
	entered, release chan struct{}
	sizes            []int
	boom             bool
}

func newParkEngine(p *core.Predictor) *parkEngine {
	return &parkEngine{Predictor: p, entered: make(chan struct{}), release: make(chan struct{})}
}

func (pe *parkEngine) ForecastBatchGen(in []*core.PreparedInput) ([][]float64, int64, error) {
	pe.sizes = append(pe.sizes, len(in))
	if len(pe.sizes) == 1 {
		close(pe.entered)
		<-pe.release
	} else if pe.boom {
		panic("injected engine fault")
	}
	return pe.Predictor.ForecastBatchGen(in)
}

// queued reads how many requests wait in sh's queue.
func (sh *shard) queued() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.n
}

// queueBehindParked sends one request that takes shard 0's lead and
// parks inside pe, then n more (submit(i), concurrently) and waits until
// all n sit in the queue. It returns once they do; wait() collects the n
// results after the caller has released the engine (or closed the
// router).
func queueBehindParked(t *testing.T, r *Router, pe *parkEngine, n int, first func() Result,
	submit func(i int) Result) (firstRes <-chan Result, wait func() []Result) {
	t.Helper()
	fc := make(chan Result, 1)
	go func() { fc <- first() }()
	<-pe.entered
	out := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = submit(i)
		}(i)
	}
	sh := r.shards[0]
	for deadline := time.Now().Add(10 * time.Second); sh.queued() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests queued behind the parked leader", sh.queued(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return fc, func() []Result { wg.Wait(); return out }
}

// TestOneShardMatchesPredictor pins the N = 1 case: a 1-shard router
// answers bitwise identically to calling the predictor directly —
// sharding changes routing, never values.
func TestOneShardMatchesPredictor(t *testing.T) {
	p, _, e := fitted(t)
	r := newRouter(t, p, 1)
	feed(r, e, e.ID, 2*p.MinHistory())
	res := r.Forecast(e.ID, "")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Gen != 1 {
		t.Fatalf("generation = %d, want 1", res.Gen)
	}
	requireBitwise(t, "1-shard vs direct", res.Forecast, directForecast(t, p, e))
}

// TestShardedMatchesOneShard pins engine equivalence at the router
// level: the same fleet served by 8 shards answers bitwise identically
// to 1 shard, entity by entity.
func TestShardedMatchesOneShard(t *testing.T) {
	p, _, e := fitted(t)
	one := newRouter(t, p, 1)
	many := newRouter(t, p, 8)
	const entities = 24
	for i := 0; i < entities; i++ {
		id := fmt.Sprintf("m_%d", i)
		feed(one, e, id, 2*p.MinHistory())
		feed(many, e, id, 2*p.MinHistory())
	}
	for i := 0; i < entities; i++ {
		id := fmt.Sprintf("m_%d", i)
		a := one.Forecast(id, "")
		b := many.Forecast(id, "")
		if a.Err != nil || b.Err != nil {
			t.Fatalf("entity %s: errs %v / %v", id, a.Err, b.Err)
		}
		requireBitwise(t, "8-shard vs 1-shard "+id, b.Forecast, a.Forecast)
	}
	// The fleet actually spread: every shard owns some entities.
	sts := many.Status()
	total := 0
	for _, st := range sts {
		total += st.Entities
	}
	if total != entities {
		t.Fatalf("shard entity total = %d, want %d", total, entities)
	}
}

// TestRoutingIsStableAndBalanced pins the entity→shard map: the same ID
// always lands on the same shard (string and byte keys agree), and FNV
// spreads a large fleet roughly evenly.
func TestRoutingIsStableAndBalanced(t *testing.T) {
	p, _, _ := fitted(t)
	r := newRouter(t, p, 8)
	var vals [trace.NumIndicators]float64
	const entities = 4096
	for i := 0; i < entities; i++ {
		id := fmt.Sprintf("m_%d", i)
		if shardOf(r, id) != shardOf(r, []byte(id)) {
			t.Fatalf("string and byte hashing disagree for %q", id)
		}
		r.IngestString(id, 10, &vals)
	}
	want := entities / r.Shards()
	for _, st := range r.Status() {
		if st.Entities < want/2 || st.Entities > want*2 {
			t.Fatalf("shard %d holds %d entities, want ~%d (hash imbalance)", st.Shard, st.Entities, want)
		}
	}
}

// TestBoundedEntities pins fleet-wide memory bounding: with a
// MaxEntities cap the router never holds more rings than the per-shard
// split allows, and evictions are counted.
func TestBoundedEntities(t *testing.T) {
	p, _, _ := fitted(t)
	r := newRouter(t, p, 4, func(c *Config) { c.MaxEntities = 64 })
	var vals [trace.NumIndicators]float64
	const entities = 256
	for i := 0; i < entities; i++ {
		r.IngestString(fmt.Sprintf("m_%d", i), 10, &vals)
	}
	if n := r.Len(); n > 64 {
		t.Fatalf("router holds %d entities, cap is 64", n)
	}
	if ev := r.Evicted(); ev < entities-64 {
		t.Fatalf("evicted = %d, want ≥ %d", ev, entities-64)
	}
}

// TestResolverServesNamedModels pins the multi-model path: a request
// naming a model serves through the resolved engine (bitwise matching
// that model served directly), releases every acquired handle, and an
// unknown name surfaces the resolver's error without disturbing
// batch-mates.
func TestResolverServesNamedModels(t *testing.T) {
	p, alt, e := fitted(t)
	errUnknown := errors.New("no such model")
	var mu sync.Mutex
	acquired, released := 0, 0
	resolve := func(model string) (Engine, func(), error) {
		if model != "alt" {
			return nil, nil, errUnknown
		}
		mu.Lock()
		acquired++
		mu.Unlock()
		return alt, func() { mu.Lock(); released++; mu.Unlock() }, nil
	}
	r := newRouter(t, p, 2, func(c *Config) { c.Resolve = resolve })
	feed(r, e, e.ID, 2*p.MinHistory())

	res := r.Forecast(e.ID, "alt")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	requireBitwise(t, "named model", res.Forecast, directForecast(t, alt, e))
	def := r.Forecast(e.ID, "")
	if def.Err != nil {
		t.Fatal(def.Err)
	}
	requireBitwise(t, "default engine untouched", def.Forecast, directForecast(t, p, e))

	if res := r.Forecast(e.ID, "ghost"); !errors.Is(res.Err, errUnknown) {
		t.Fatalf("unknown model error = %v", res.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if acquired == 0 || acquired != released {
		t.Fatalf("handle leak: %d acquired, %d released", acquired, released)
	}
}

// TestUnknownEntity pins the routing of a miss: an entity with no ring
// state answers ErrUnknownEntity, not a panic or a zero forecast.
func TestUnknownEntity(t *testing.T) {
	p, _, _ := fitted(t)
	r := newRouter(t, p, 2)
	if res := r.Forecast("ghost", ""); !errors.Is(res.Err, ErrUnknownEntity) {
		t.Fatalf("unknown entity error = %v", res.Err)
	}
}

// panicEngine serves MinHistory/PrepareInput through a real predictor
// but panics on every forward.
type panicEngine struct{ *core.Predictor }

func (pe panicEngine) ForecastBatchGen([]*core.PreparedInput) ([][]float64, int64, error) {
	panic("injected engine fault")
}

// TestEnginePanicIsIsolated pins fault isolation: a panicking resolved
// engine poisons only its own group — the same batch's default-engine
// requests still answer normally, and the shard keeps serving — and each
// recovered group is one tick of rptcn_panics_recovered_total, however
// many waiters it held.
func TestEnginePanicIsIsolated(t *testing.T) {
	p, _, e := fitted(t)
	resolve := func(string) (Engine, func(), error) { return panicEngine{p}, nil, nil }
	reg := obs.NewRegistry()
	panics := reg.Counter("rptcn_panics_recovered_total", "")
	r := newRouter(t, p, 1, func(c *Config) { c.Resolve, c.Registry = resolve, reg })
	feed(r, e, e.ID, 2*p.MinHistory())

	if res := r.Forecast(e.ID, "boom"); !res.Panicked {
		t.Fatalf("panicking engine result = %+v, want Panicked", res)
	}
	if got := panics.Value(); got != 1 {
		t.Fatalf("panics recovered = %g after one poisoned group, want 1", got)
	}
	// The shard still serves and the default engine is unaffected.
	res := r.Forecast(e.ID, "")
	if res.Err != nil || res.Panicked {
		t.Fatalf("post-panic default forecast = %+v", res)
	}
	requireBitwise(t, "post-panic", res.Forecast, directForecast(t, p, e))

	// A fused batch of prepared inputs that panics: every waiter reports
	// it (each degrades at its own call site), the counter ticks once.
	t.Run("PreparedBatchTicksOnce", func(t *testing.T) {
		pe := newParkEngine(p)
		pe.boom = true
		reg := obs.NewRegistry()
		r := newRouter(t, p, 1, func(c *Config) { c.Engines, c.Registry = []Engine{pe}, reg })
		in := preparedTail(t, p, e)
		const n = 4
		first, wait := queueBehindParked(t, r, pe, n,
			func() Result { return r.ForecastPrepared(context.Background(), time.Time{}, "", in) },
			func(int) Result { return r.ForecastPrepared(context.Background(), time.Time{}, "", in) })
		close(pe.release)
		if res := <-first; res.Err != nil || res.Panicked {
			t.Fatalf("parked request = %+v", res)
		}
		for i, res := range wait() {
			if res.Err != nil || !res.Panicked {
				t.Fatalf("waiter %d = %+v, want Panicked", i, res)
			}
		}
		if len(pe.sizes) != 2 || pe.sizes[1] != n {
			t.Fatalf("batches = %v, want the %d waiters fused into one", pe.sizes, n)
		}
		if got := reg.Counter("rptcn_panics_recovered_total", "").Value(); got != 1 {
			t.Fatalf("panics recovered = %g for one fused batch of %d, want 1", got, n)
		}
	})
}

// TestCloseDrains pins shutdown: Close answers queued requests with
// ErrClosed, later Forecasts fail fast, and Close is idempotent.
func TestCloseDrains(t *testing.T) {
	p, _, e := fitted(t)
	r := newRouter(t, p, 2)
	feed(r, e, e.ID, 2*p.MinHistory())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := r.Forecast(e.ID, "")
			if res.Err != nil && !errors.Is(res.Err, ErrClosed) {
				t.Errorf("in-flight request got %v", res.Err)
			}
		}()
	}
	r.Close()
	wg.Wait()
	r.Close() // idempotent
	if res := r.Forecast(e.ID, ""); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("post-close forecast error = %v", res.Err)
	}
	if res := r.ForecastPrepared(context.Background(), time.Time{}, "", preparedTail(t, p, e)); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("post-close prepared forecast error = %v", res.Err)
	}

	// Close with the leader mid-forward and prepared inputs queued behind
	// it: the forward in flight is answered for real, every queued request
	// gets ErrClosed, none is dropped or answered twice.
	t.Run("PreparedInFlight", func(t *testing.T) {
		pe := newParkEngine(p)
		r := newRouter(t, p, 1, func(c *Config) { c.Engines = []Engine{pe} })
		in := preparedTail(t, p, e)
		first, wait := queueBehindParked(t, r, pe, 4,
			func() Result { return r.ForecastPrepared(context.Background(), time.Time{}, e.ID, in) },
			func(int) Result { return r.ForecastPrepared(context.Background(), time.Time{}, "", in) })
		closed := make(chan struct{})
		go func() { r.Close(); close(closed) }()
		for sh := r.shards[0]; ; time.Sleep(time.Millisecond) {
			sh.mu.Lock()
			marked := sh.closed
			sh.mu.Unlock()
			if marked {
				break // Close waits for the leader; now let it finish
			}
		}
		close(pe.release)
		res := <-first
		if res.Err != nil {
			t.Fatalf("request in the forward when Close landed: %v", res.Err)
		}
		requireBitwise(t, "in-flight across Close", res.Forecast, directForecast(t, p, e))
		for i, res := range wait() {
			if !errors.Is(res.Err, ErrClosed) {
				t.Fatalf("queued request %d = %+v, want ErrClosed", i, res)
			}
		}
		<-closed
		if len(pe.sizes) != 1 {
			t.Fatalf("leaders ran %v after Close, want only the batch in flight", pe.sizes)
		}
	})

	// Close lands between a leader's hand-off and the moment the request
	// it handed the lead to starts: that request runs no batch — it
	// answers ErrClosed, refuses the rest of the queue and lets Close
	// return. The test holds the lead and plays the handing leader.
	t.Run("HandedLeadAfterClose", func(t *testing.T) {
		r := newRouter(t, p, 1)
		in := preparedTail(t, p, e)
		sh := r.shards[0]
		sh.mu.Lock()
		sh.leading = true
		sh.mu.Unlock()
		out := make([]Result, 2)
		var wg sync.WaitGroup
		for i := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i] = r.ForecastPrepared(context.Background(), time.Time{}, "", in)
			}()
		}
		for sh.queued() < len(out) {
			time.Sleep(time.Millisecond)
		}
		sh.mu.Lock()
		next := sh.pop()
		sh.mu.Unlock()
		closed := make(chan struct{})
		go func() { r.Close(); close(closed) }()
		for marked := false; !marked; time.Sleep(time.Millisecond) {
			sh.mu.Lock()
			marked = sh.closed
			sh.mu.Unlock()
		}
		next.lead = true
		next.done <- struct{}{}
		wg.Wait()
		<-closed
		for i, res := range out {
			if !errors.Is(res.Err, ErrClosed) {
				t.Fatalf("request %d = %+v, want ErrClosed", i, res)
			}
		}
		if b := sh.batches.Load(); b != 0 {
			t.Fatalf("%d batches ran after Close", b)
		}
	})
}

// TestConcurrentFleetServing hammers a sharded router with concurrent
// ingest and forecasts across many entities; under -race this pins the
// single-owner discipline (engines, rings, accounting).
func TestConcurrentFleetServing(t *testing.T) {
	p, _, e := fitted(t)
	r := newRouter(t, p, 4)
	const entities = 32
	for i := 0; i < entities; i++ {
		feed(r, e, fmt.Sprintf("m_%d", i), 2*p.MinHistory())
	}
	want := directForecast(t, p, e)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 16; it++ {
				id := fmt.Sprintf("m_%d", (g*16+it)%entities)
				res := r.Forecast(id, "")
				if res.Err != nil {
					t.Errorf("forecast %s: %v", id, res.Err)
					return
				}
				for k := range want {
					if res.Forecast[k] != want[k] {
						t.Errorf("forecast %s drifted at step %d", id, k)
						return
					}
				}
			}
		}(g)
	}
	// Concurrent ingest of fresh entities while forecasts run.
	var vals [trace.NumIndicators]float64
	for i := 0; i < 200; i++ {
		r.IngestString(fmt.Sprintf("fresh_%d", i), 10, &vals)
	}
	wg.Wait()
	sts := r.Status()
	var served uint64
	for _, st := range sts {
		served += st.Requests
	}
	if served != 8*16 {
		t.Fatalf("shards served %d requests, want %d", served, 8*16)
	}

	// Prepared inputs (the POST path) and ring reads (the entity path)
	// queued on one shard leave in one forward, each answered bitwise as
	// if served alone.
	t.Run("PreparedFusesWithRing", func(t *testing.T) {
		pe := newParkEngine(p)
		r := newRouter(t, p, 1, func(c *Config) { c.Engines = []Engine{pe} })
		feed(r, e, e.ID, 2*p.MinHistory())
		in := preparedTail(t, p, e)
		const n = 8
		first, wait := queueBehindParked(t, r, pe, n,
			func() Result { return r.ForecastPrepared(context.Background(), time.Time{}, "", in) },
			func(i int) Result {
				if i%2 == 0 {
					return r.ForecastPrepared(context.Background(), time.Time{}, "anyone", in)
				}
				return r.Forecast(e.ID, "")
			})
		close(pe.release)
		for i, res := range append(wait(), <-first) {
			if res.Err != nil || res.Panicked {
				t.Fatalf("request %d = %+v", i, res)
			}
			requireBitwise(t, "fused", res.Forecast, want)
		}
		if len(pe.sizes) != 2 || pe.sizes[0] != 1 || pe.sizes[1] != n {
			t.Fatalf("batches = %v, want [1 %d]", pe.sizes, n)
		}
		st := r.Status()[0]
		if st.Requests != n+1 || st.Batches != 2 || st.QueueDepth != 0 {
			t.Fatalf("status after the fused batch = %+v", st)
		}
	})
}

// TestPreparedRouting pins where a prepared input is served: a named
// entity on the shard that owns that entity (so it fuses with the
// entity's own traffic), anonymous ones spread over every shard, and
// either way bitwise what one shard answers.
func TestPreparedRouting(t *testing.T) {
	p, _, e := fitted(t)
	r := newRouter(t, p, 4)
	in := preparedTail(t, p, e)
	want := directForecast(t, p, e)

	const named = 5
	owner := shardOf(r, "c_42")
	for i := 0; i < named; i++ {
		res := r.ForecastPrepared(context.Background(), time.Time{}, "c_42", in)
		if res.Err != nil || res.Gen != 1 {
			t.Fatalf("named prepared forecast = %+v", res)
		}
		requireBitwise(t, "named prepared", res.Forecast, want)
	}
	for _, st := range r.Status() {
		wantReqs := uint64(0)
		if st.Shard == owner.id {
			wantReqs = named
		}
		if st.Requests != wantReqs {
			t.Fatalf("shard %d served %d requests for c_42, want %d (owner is shard %d)",
				st.Shard, st.Requests, wantReqs, owner.id)
		}
	}

	for i := 0; i < 2*r.Shards(); i++ {
		res := r.ForecastPrepared(context.Background(), time.Time{}, "", in)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		requireBitwise(t, "anonymous prepared", res.Forecast, want)
	}
	for _, st := range r.Status() {
		if got := st.Requests; got != 2 && got != 2+named {
			t.Fatalf("anonymous requests not spread evenly: shard %d served %d", st.Shard, got)
		}
	}
}

// TestLeaderHandoffAnswersEveryRequest drives 64 clients through 1- and
// 2-shard routers with no goroutine of their own: prepared windows and
// first reads of ring-backed entities (each a refill through a batch),
// every fifth request with a 1 ms deadline and every fifth with a
// canceled context, and Close landing mid-run. Every request returns
// once, as a forecast bitwise ForecastFrom's, ErrClosed, or the error of
// the bound it gave up on; batches fuse; and no goroutine outlives the
// router.
func TestLeaderHandoffAnswersEveryRequest(t *testing.T) {
	p, _, e := fitted(t)
	in := preparedTail(t, p, e)
	want := directForecast(t, p, e)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			const clients, rounds = 64, 8
			holds := make([]*holdEngine, shards)
			r := newRouter(t, p, shards, func(c *Config) {
				c.MaxEntities = clients * rounds
				for i := range c.Engines {
					holds[i] = &holdEngine{ShardInferencer: p.NewShardInferencer()}
					c.Engines[i] = holds[i]
				}
			})
			for i, h := range holds {
				h.sh = r.shards[i]
			}
			for c := 0; c < clients; c++ {
				for i := 1; i < rounds; i += 2 {
					feed(r, e, fmt.Sprintf("h%d_%d", c, i), p.MinHistory())
				}
			}
			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			var served, refused, gaveUp atomic.Int64
			var wg sync.WaitGroup
			start := make(chan struct{})
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					<-start
					for i := 0; i < rounds; i++ {
						ctx, deadline := context.Background(), time.Time{}
						switch (c*rounds + i) % 5 {
						case 3:
							deadline = time.Now().Add(time.Millisecond)
						case 4:
							ctx = canceled
						}
						var res Result
						if i%2 == 0 {
							res = r.ForecastPrepared(ctx, deadline, "", in)
						} else {
							res = r.ForecastWithin(ctx, deadline, fmt.Sprintf("h%d_%d", c, i), "")
						}
						switch {
						case res.Err == nil && !res.Panicked:
							if !slices.Equal(res.Forecast, want) {
								t.Errorf("client %d round %d: %v, want %v", c, i, res.Forecast, want)
							}
							served.Add(1)
						case errors.Is(res.Err, ErrClosed):
							refused.Add(1)
						case errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded):
							gaveUp.Add(1)
						default:
							t.Errorf("client %d round %d: %+v", c, i, res)
						}
					}
				}(c)
			}
			close(start)
			for served.Load() < clients*rounds/2 && served.Load()+gaveUp.Load() < clients*rounds {
				time.Sleep(50 * time.Microsecond)
			}
			r.Close()
			wg.Wait()

			t.Logf("%d served, %d refused, %d gave up", served.Load(), refused.Load(), gaveUp.Load())
			if n := served.Load() + refused.Load() + gaveUp.Load(); n != clients*rounds {
				t.Fatalf("%d answers for %d requests (%d served, %d refused, %d gave up)",
					n, clients*rounds, served.Load(), refused.Load(), gaveUp.Load())
			}
			var requests, batches uint64
			for _, st := range r.Status() {
				requests += st.Requests
				batches += st.Batches
				if st.QueueDepth != 0 {
					t.Fatalf("shard %d left %d queued", st.Shard, st.QueueDepth)
				}
			}
			if requests != uint64(served.Load()) {
				t.Fatalf("shards ran %d requests, %d were served", requests, served.Load())
			}
			for i, sh := range r.shards {
				if n := sh.callers.Load(); n != 0 {
					t.Fatalf("shard %d counts %d callers after every request returned", i, n)
				}
			}
			if batches >= requests {
				t.Fatalf("%d batches for %d requests: nothing fused", batches, requests)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before the router", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// holdEngine is a shard's engine whose first forward waits until 16
// requests queue behind it (or a second passes), so that the batches
// after it fuse however the scheduler runs the clients.
type holdEngine struct {
	*core.ShardInferencer
	sh   *shard
	held bool
}

func (h *holdEngine) ForecastBatchGen(in []*core.PreparedInput) ([][]float64, int64, error) {
	if !h.held {
		h.held = true
		for deadline := time.Now().Add(time.Second); h.sh.queued() < 16 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return h.ShardInferencer.ForecastBatchGen(in)
}

// TestBatchPanicAnswersEveryMember: a panic in a batch outside an
// engine's forward — here the Resolver of a ring-backed read — answers
// every member of that batch Panicked, the prepared windows queued with
// it included, ticks rptcn_panics_recovered_total once, and hands the
// lead on: the shard serves the next request.
func TestBatchPanicAnswersEveryMember(t *testing.T) {
	p, _, e := fitted(t)
	pe := newParkEngine(p)
	reg := obs.NewRegistry()
	resolve := func(string) (Engine, func(), error) { panic("resolver fault") }
	r := newRouter(t, p, 1, func(c *Config) {
		c.Engines, c.Registry, c.Resolve, c.Log = []Engine{pe}, reg, resolve, obs.NopLogger()
	})
	feed(r, e, e.ID, 2*p.MinHistory())
	in := preparedTail(t, p, e)
	const n = 6
	first, wait := queueBehindParked(t, r, pe, n,
		func() Result { return r.ForecastPrepared(context.Background(), time.Time{}, "", in) },
		func(i int) Result {
			if i == n/2 {
				return r.Forecast(e.ID, "boom")
			}
			return r.ForecastPrepared(context.Background(), time.Time{}, "", in)
		})
	close(pe.release)
	if res := <-first; res.Err != nil || res.Panicked {
		t.Fatalf("parked request = %+v", res)
	}
	for i, res := range wait() {
		if !res.Panicked {
			t.Fatalf("batch member %d = %+v, want Panicked", i, res)
		}
	}
	if got := reg.Counter("rptcn_panics_recovered_total", "").Value(); got != 1 {
		t.Fatalf("panics recovered = %g for one batch, want 1", got)
	}
	res := r.ForecastPrepared(context.Background(), time.Time{}, "", in)
	if res.Err != nil || res.Panicked {
		t.Fatalf("forecast after the panicked batch = %+v", res)
	}
	requireBitwise(t, "after the panicked batch", res.Forecast, directForecast(t, p, e))
}

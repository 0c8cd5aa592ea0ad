package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	obstrace "repro/internal/obs/trace"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/quality"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/train"
)

// The layer probes: what the spans of the replays do not give. Each calls one
// layer's public entry point in a loop, on inputs made from the seed.

// perCall runs fn in `batches` batches of `per` calls and returns the median
// time of one call in ns. Calls that take under a microsecond are timed in
// batches so that reading the clock is not what is measured.
func (t *tracedRun) perCall(batches, per int, fn func()) float64 {
	times := make([]float64, t.cfg.scaled(batches))
	for b := range times {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		times[b] = float64(time.Since(t0)) / float64(per)
	}
	return median(times)
}

// mallocsOf returns how many heap objects fn allocates, process-wide.
func mallocsOf(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

func (t *tracedRun) probes(wl workload) error {
	for _, probe := range []func(workload) error{
		t.probeServer, t.probeShard, t.probeCore, t.probeFit, t.probeKernels,
		t.probeQuality, t.probeRegistry, t.probeTelemetry,
	} {
		if err := probe(wl); err != nil {
			return err
		}
	}
	return nil
}

// probeServer: the floor of a round trip, the handler's allocations on the
// workload's own op, the scanner's allocations and the cost of a scrape.
func (t *tracedRun) probeServer(wl workload) error {
	healthz := getRequest("/healthz")
	var err error
	t.m["server.healthz_us"] = t.perCall(1500, 1, func() {
		status, _, derr := t.cli.do(healthz)
		if derr != nil || status != http.StatusOK {
			err = errors.Join(err, derr, fmt.Errorf("/healthz answered %d", status))
		}
	}) / 1e3
	if err != nil {
		return err
	}

	sink := newSinkWriter()
	var call func(i int) error // one handler-level call of the workload's own op
	n := t.cfg.scaled(500)
	switch w := wl.(type) {
	case *entityRead:
		call = func(i int) error {
			return t.serve(t.fix.srv, sink, http.MethodGet, "/v1/forecast/"+w.in.entities[i%fleetEntities].ID, nil)
		}
	case *windowPost:
		n = t.cfg.scaled(100) // each waits out the batcher's 2 ms
		call = func(i int) error {
			return t.serve(t.fix.srv, sink, http.MethodPost, "/v1/forecast", requestBody(w.in.requests[i%postEntities]))
		}
	case *ingestWrite:
		n = liveChunks // the tick after the replay's last, without its transients
		var body []byte
		call = func(i int) error {
			body = w.in.liveChunk(body[:0], t.cfg.scaled(ownTicks), i)
			return t.serve(t.direct.srv, sink, http.MethodPost, "/v1/ingest", body)
		}
	}
	t.m["server.allocs_per_req"] = 0
	if call != nil {
		t.m["server.allocs_per_req"] = mallocsOf(func() {
			for i := 0; i < n; i++ {
				err = errors.Join(err, call(i))
			}
		}) / float64(n)
		if err != nil {
			return err
		}
	}

	rows := 0
	t.m["trace.scan_allocs_per_row"] = mallocsOf(func() {
		for _, body := range t.fleet.chunks {
			err = errors.Join(err, scanOnly(body))
			rows += countRows(body)
		}
	}) / float64(rows)
	if err != nil {
		return err
	}

	scrape := getRequest("/metrics")
	t.m["obs.scrape_ms"] = t.perCall(20, 1, func() {
		status, _, derr := t.cli.do(scrape)
		if derr != nil || status != http.StatusOK {
			err = errors.Join(err, derr, fmt.Errorf("/metrics answered %d", status))
		}
	}) / 1e6
	return err
}

// callers2 drives a router from two goroutines for d and returns the
// forecasts per second and the mean batch the shard workers fused.
func callers2(r *shard.Router, in *fleetInputs, d time.Duration) (rps, meanBatch float64, err error) {
	totals := func() (requests, batches uint64) {
		for _, st := range r.Status() {
			requests += st.Requests
			batches += st.Batches
		}
		return requests, batches
	}
	reqBefore, batBefore := totals()
	var wg sync.WaitGroup
	var done atomic.Int64
	errs := make([]error, 2)
	t0 := time.Now()
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; time.Since(t0) < d; i += len(errs) {
				if res := r.Forecast(in.entities[i%len(in.entities)].ID, ""); res.Err != nil {
					errs[g] = res.Err
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	reqAfter, batAfter := totals()
	return float64(done.Load()) / elapsed.Seconds(), float64(reqAfter-reqBefore) / float64(batAfter-batBefore), errors.Join(errs...)
}

// probeShard: two callers on the router the forecast replay used, and the
// same on a two-shard router with a model replica per shard.
func (t *tracedRun) probeShard(workload) error {
	d := time.Duration(t.cfg.scaled(400)) * time.Millisecond
	var err error
	if t.m["shard.rps_c2"], t.m["shard.mean_batch"], err = callers2(t.fleetTwins.router, t.fleet, d); err != nil {
		return err
	}
	two, err := shard.New(shard.Config{
		Shards: 2, MaxBatch: 32, RingCapacity: ringCapacity,
		Engines:  []shard.Engine{t.pred.NewShardInferencer(), t.pred.NewShardInferencer()},
		Registry: obs.NewRegistry(), Log: obs.NopLogger(),
	})
	if err != nil {
		return err
	}
	defer two.Close()
	err = scanRows(t.fleet.chunks, func(entity []byte, ts int, vals *[trace.NumIndicators]float64) {
		two.Ingest(entity, ts, vals)
	})
	if err != nil {
		return err
	}
	rps2, _, err := callers2(two, t.fleet, d)
	t.m["shard.s2_over_s1"] = rps2 / t.m["shard.rps_c2"]
	return err
}

// probeCore: batched forwards on both numeric tiers and the allocations of
// one forecast.
func (t *tracedRun) probeCore(workload) error {
	inputs := make([]*core.PreparedInput, 32)
	for i := range inputs {
		var err error
		if inputs[i], err = t.pred.PrepareInput(t.fleet.ringWindow(i % len(t.fleet.entities))); err != nil {
			return err
		}
	}
	var err error
	b32 := func(p *core.Predictor) float64 {
		return t.perCall(300, 1, func() {
			if _, ferr := p.ForecastBatch(inputs); ferr != nil {
				err = ferr
			}
		}) / 32 / 1e3
	}
	t.m["core.forward_b32_us_per_item"] = b32(t.pred)
	// The float32 tier needs the held-out split a fit retains, so it gets a
	// predictor of its own. Should validation refuse the tier, the predictor
	// keeps serving float64 and the number says what serving would cost.
	p32, err2 := fitServingModel()
	if err2 != nil {
		return err2
	}
	if _, ferr := p32.EnableFloat32(); ferr != nil {
		fmt.Fprintf(t.w, "# float32 tier refused (%v): core.forward_f32_b32_us_per_item is float64\n", ferr)
	}
	t.m["core.forward_f32_b32_us_per_item"] = b32(p32)
	if err != nil {
		return err
	}
	win := t.fleet.ringWindow(0)
	t.m["core.allocs_per_forecast"] = mallocsOf(func() {
		for i := 0; i < 500; i++ {
			if _, ferr := t.pred.ForecastFrom(win); ferr != nil {
				err = ferr
			}
		}
	}) / 500
	return err
}

// probeFit: the fit's data pipeline, the fit itself on one and on all cores,
// evaluation and the optimizer step.
func (t *tracedRun) probeFit(wl workload) error {
	w := &trainFit{seed: subSeed(t.cfg.seed, streamProbe)}
	if own, ok := wl.(*trainFit); ok {
		w = &trainFit{seed: own.seed}
	}
	if err := w.setUp(); err != nil {
		return err
	}
	series := w.in.series[0].Matrix()
	var err error
	var va train.Dataset
	t.m["dataprep.fit_ms"] = t.perCall(15, 1, func() { _, va, err = splitForFit(series) }) / 1e6
	if err != nil {
		return err
	}

	timeFits := func() float64 {
		return t.perCall(5, 1, func() {
			if _, ferr := w.fit(w.next, fitConfig(0)); ferr != nil {
				err = ferr
			}
			w.next++
		})
	}
	all := timeFits()
	procs := runtime.GOMAXPROCS(1)
	workers := par.SetWorkers(1)
	w.next = 0 // the same series on one core as on all
	one := timeFits()
	runtime.GOMAXPROCS(procs)
	par.SetWorkers(workers)
	if err != nil {
		return err
	}
	t.m["core.fit_ms"] = all / 1e6
	t.m["par.fit_speedup"] = one / all

	model := t.lastFit.Model()
	t.m["train.eval_ms"] = t.perCall(20, 1, func() { train.EvaluateLoss(model, va, &nn.MSELoss{}) }) / 1e6
	adam, params := opt.NewAdam(1e-3), model.Params()
	t.m["opt.step_us"] = t.perCall(1000, 1, func() { adam.Step(params) }) / 1e3
	return nil
}

// probeKernels: the model's largest matrix product at the training and at
// the serving batch size, the model's computed work per forecast, and an
// empty parallel dispatch.
func (t *tracedRun) probeKernels(workload) error {
	cfg := t.pred.Model().Cfg
	product := func(batch, calls int) (ns, flops float64) {
		op := newGemmPlan(cfg, batch).largest()
		a, b, dst := tensor.RandN(tensor.NewRNG(2), op.m, op.k), tensor.RandN(tensor.NewRNG(3), op.k, op.n), tensor.New(op.m, op.n)
		return t.perCall(calls, 1, func() { a.MatMulInto(b, dst) }), 2 * float64(op.m) * float64(op.k) * float64(op.n)
	}
	ns, flops := product(32, 300)
	t.m["tensor.gemm_train_gflops"] = flops / ns
	t.m["tensor.gemm_b1_ns"], _ = product(1, 2000)
	t.m["tensor.flops_per_forecast"] = t.fleetTwins.gemm.flops // computed from the model's shape
	t.m["tensor.bytes_per_forecast"] = t.fleetTwins.gemm.bytes // computed from the model's shape
	t.m["par.dispatch_ns"] = t.perCall(200, 50, func() { par.Run(1024, func(int, int) {}) })
	return nil
}

// probeQuality: the serving path's share of the quality engine, an enqueue,
// and what the server's own engine dropped during the run.
func (t *tracedRun) probeQuality(workload) error {
	eng := quality.New(quality.Config{Horizon: horizon, Registry: obs.NewRegistry(), Log: obs.NopLogger()})
	forecast := make([]float64, horizon)
	at := int64(0)
	t.m["quality.record_ns"] = t.perCall(50, 50, func() {
		at++
		eng.RecordForecast("c_10000", at, forecast)
	})
	t.m["quality.dropped_events"] = 0
	for _, s := range t.fix.reg.Snapshot() {
		if s.Name == "rptcn_quality_dropped_events_total" {
			t.m["quality.dropped_events"] += s.Value
		}
	}
	return eng.Close()
}

// probeRegistry: publish, cold load and cache hit on a store in a directory
// of the run's own.
func (t *tracedRun) probeRegistry(workload) error {
	if err := os.MkdirAll(t.cfg.out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(t.cfg.out, "registry-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := registry.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	t.m["registry.publish_ms"] = t.perCall(5, 1, func() {
		if _, perr := store.Publish("bench", t.pred); perr != nil {
			err = perr
		}
	}) / 1e6
	if err != nil {
		return err
	}
	t.m["registry.load_cold_ms"] = t.perCall(5, 1, func() {
		h, aerr := registry.NewCache(store, 0).Acquire("bench")
		if aerr != nil {
			err = aerr
			return
		}
		h.Release()
	}) / 1e6
	if err != nil {
		return err
	}
	cache := registry.NewCache(store, 0)
	t.m["registry.acquire_hit_ns"] = t.perCall(100, 100, func() {
		h, aerr := cache.Acquire("bench")
		if aerr != nil {
			err = aerr
			return
		}
		h.Release()
	})
	return err
}

// probeTelemetry: the entity forecast handler with the fleet sketches and an
// enabled tracer, over the same handler with both off. The two servers take
// turns, so that a host that slows down slows both.
func (t *tracedRun) probeTelemetry(workload) error {
	on := defaultFixtureOptions()
	on.tracer.SetEnabled(true)
	off := fixtureOptions{fleet: server.FleetConfig{Disabled: true}, tracer: obstrace.New(obstrace.DefaultRingSize)}
	sink := newSinkWriter()
	var fixtures [2]*fixture
	for i, o := range []fixtureOptions{on, off} {
		f, err := newFixture(t.pred, o)
		if err != nil {
			return err
		}
		defer f.close()
		for _, body := range t.fleet.chunks {
			if err := post(f.srv, sink, "/v1/ingest", body); err != nil {
				return err
			}
		}
		fixtures[i] = f
	}
	var us [2][]float64
	var err error
	for round, next := 0, 0; round < 6; round++ {
		for i, f := range fixtures {
			us[i] = append(us[i], t.perCall(250, 1, func() {
				id := t.fleet.entities[next%len(t.fleet.entities)].ID
				err = errors.Join(err, t.serve(f.srv, sink, http.MethodGet, "/v1/forecast/"+id, nil))
				next++
			}))
		}
	}
	t.m["obs.telemetry_overhead_pct"] = 100 * (median(us[0])/median(us[1]) - 1)
	return err
}

package main

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/train"
)

// newOps reserves n op IDs and returns the first.
func (t *tracedRun) newOps(n int) int {
	first := t.ops + 1
	t.ops += n
	return first
}

// pass replays one layer: it calls fn(i) for every op i of a replay, each
// call one span named name whose parent is parents[i] (a root when parents is
// nil), and returns the spans' IDs. before, when not nil, runs ahead of each
// call, outside its span.
func (t *tracedRun) pass(name string, firstOp, ops int, parents []int, before func(i int), fn func(i int) error) ([]int, error) {
	ids := make([]int, ops)
	for i := range ids {
		if before != nil {
			before(i)
		}
		parent := 0
		if parents != nil {
			parent = parents[i]
		}
		var err error
		ids[i] = t.rec.timed(name, parent, firstOp+i, func() { err = fn(i) })
		if err != nil {
			return nil, fmt.Errorf("%s, op %d: %w", name, i, err)
		}
	}
	return ids, nil
}

// socketPass sends req(i) over the socket, one "http" span each, and hands
// each response body to got.
func (t *tracedRun) socketPass(firstOp, ops int, req func(i int) []byte, got func(i int, body []byte) error) ([]int, error) {
	return t.pass("http", firstOp, ops, nil, nil, func(i int) error {
		status, body, err := t.cli.do(req(i))
		if err != nil {
			return err
		}
		t.check(status)
		return got(i, body)
	})
}

// handlerPass calls a server's handler directly, one span each, and hands
// each response body to got.
func (t *tracedRun) handlerPass(name string, firstOp, ops int, parents []int, h http.Handler,
	method string, path func(i int) string, body func(i int) []byte, got func(i int, body []byte) error) ([]int, error) {
	sink := newSinkWriter()
	var payload []byte
	return t.pass(name, firstOp, ops, parents, func(i int) {
		if body != nil {
			payload = body(i)
		}
	}, func(i int) error {
		if err := t.serve(h, sink, method, path(i), payload); err != nil {
			return err
		}
		return got(i, sink.body.Bytes())
	})
}

// forecastKeeper parses forecast responses into dst[i].
func forecastKeeper(dst [][]float64) func(i int, body []byte) error {
	return func(i int, body []byte) (err error) {
		dst[i], err = parseForecast(nil, body)
		return err
	}
}

// modelPasses replays the forecast path from the window down, for ops whose
// windows are wins: core.prepare -> dataprep, core.forward -> nn.infer ->
// tensor.gemm. It returns what core.forward forecast for each op.
func (t *tracedRun) modelPasses(tw *twins, firstOp int, parents []int, wins [][][]float64) ([][]float64, error) {
	n := len(wins)
	inputs := make([]*core.PreparedInput, n)
	prep, err := t.pass("core.prepare", firstOp, n, parents, nil, func(i int) (err error) {
		inputs[i], err = tw.pred.PrepareInput(wins[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	channels := make([][][]float64, n)
	if _, err = t.pass("dataprep", firstOp, n, prep, nil, func(i int) error {
		channels[i] = tw.servePipeline(wins[i])
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([][]float64, n)
	batch := make([]*core.PreparedInput, 1)
	fwd, err := t.pass("core.forward", firstOp, n, parents, nil, func(i int) error {
		batch[0] = inputs[i]
		res, err := tw.pred.ForecastBatch(batch)
		if err == nil {
			out[i] = res[0]
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	inf, err := t.pass("nn.infer", firstOp, n, fwd, func(i int) {
		for c, ch := range channels[i] {
			copy(tw.x.Data[c*window:(c+1)*window], ch[len(ch)-window:])
		}
	}, func(int) error {
		tw.arena.Reset()
		tw.model.InferForward(tw.arena, tw.x)
		return nil
	})
	if err != nil {
		return nil, err
	}
	_, err = t.pass("tensor.gemm", firstOp, n, inf, nil, func(int) error { tw.gemm.run(); return nil })
	return out, err
}

// replayForecasts replays forecastOps entity forecasts. On entity-read the
// ops are the workload's own and start at the socket; elsewhere they start
// at the shard router, on a small fleet made for the purpose.
func (t *tracedRun) replayForecasts(wl workload) error {
	own, _ := wl.(*entityRead)
	in := newFleetInputs(chunkEntities, subSeed(t.cfg.seed, streamProbe))
	if own != nil {
		in = own.in
	}
	tw, err := newTwins(t.pred, 0)
	if err != nil {
		return err
	}
	t.cleanup = append(t.cleanup, func() error { tw.close(); return nil })
	if err := tw.fill(in.chunks); err != nil {
		return err
	}
	t.fleet, t.fleetTwins = in, tw

	n := t.cfg.scaled(forecastOps)
	first := t.newOps(n)
	entity := func(i int) int { return i % len(in.entities) }
	ids, wins := make([]string, n), make([][][]float64, n)
	for i := range ids {
		ids[i], wins[i] = in.entities[entity(i)].ID, in.ringWindow(entity(i))
	}
	var parents []int
	served, handled := make([][]float64, n), make([][]float64, n)
	if own != nil {
		if parents, err = t.socketPass(first, n, func(i int) []byte { return in.gets[entity(i)] }, forecastKeeper(served)); err != nil {
			return err
		}
		if parents, err = t.handlerPass("server", first, n, parents, t.fix.srv, http.MethodGet,
			func(i int) string { return "/v1/forecast/" + ids[i] }, nil, forecastKeeper(handled)); err != nil {
			return err
		}
	}
	routed := make([][]float64, n)
	if parents, err = t.pass("shard", first, n, parents, nil, func(i int) error {
		res := tw.router.Forecast(ids[i], "")
		if res.Err != nil || res.Panicked {
			return fmt.Errorf("twin router: %v (panicked %v)", res.Err, res.Panicked)
		}
		routed[i] = res.Forecast
		return nil
	}); err != nil {
		return err
	}
	if _, err = t.pass("trace.window", first, n, parents, nil, func(i int) error {
		if !tw.store.WithWindow(ids[i], minHistory, func([][]float64, int, int) {}) {
			return fmt.Errorf("twin ring store does not hold %s", ids[i])
		}
		return nil
	}); err != nil {
		return err
	}
	want, err := t.modelPasses(tw, first, parents, wins)
	if err != nil {
		return err
	}
	for i := range want {
		t.compare(routed[i], want[i])
		if own != nil {
			t.compare(served[i], want[i])
			t.compare(handled[i], want[i])
		}
	}
	return nil
}

// replayPosts replays postOps window posts: socket, handler, then the
// forecast path without rings or router.
func (t *tracedRun) replayPosts(w *windowPost) error {
	n := t.cfg.scaled(postOps)
	first := t.newOps(n)
	wins := make([][][]float64, n)
	for i := range wins {
		wins[i] = w.in.window(i % postEntities)
	}
	request := func(i int) []byte { return w.in.requests[i%postEntities] }
	served, handled := make([][]float64, n), make([][]float64, n)
	parents, err := t.socketPass(first, n, request, forecastKeeper(served))
	if err != nil {
		return err
	}
	if parents, err = t.handlerPass("server", first, n, parents, t.fix.srv, http.MethodPost,
		func(int) string { return "/v1/forecast" }, func(i int) []byte { return requestBody(request(i)) },
		forecastKeeper(handled)); err != nil {
		return err
	}
	want, err := t.modelPasses(t.fleetTwins, first, parents, wins)
	if err != nil {
		return err
	}
	for i := range want {
		t.compare(served[i], want[i])
		t.compare(handled[i], want[i])
	}
	return nil
}

// replayIngest replays ingest chunks. On ingest-write they are the
// workload's own, sent over the socket to a freshly set-up server; in every
// run they go to a second server at handler level and to the twins below.
// Every layer is given the same sequence of chunks, so each holds the same
// rings when it is given the same chunk.
func (t *tracedRun) replayIngest(wl workload) error {
	ticks := probeTicks
	own, _ := wl.(*ingestWrite)
	in := (*ingestInputs)(nil)
	if own != nil {
		if err := errors.Join(own.tearDown(), own.setUp()); err != nil {
			return err
		}
		t.fix, t.cli, in, ticks = own.fix, own.cli, own.in, ownTicks
	} else {
		in = newIngestInputs(subSeed(t.cfg.seed, streamProbe))
	}
	o := defaultFixtureOptions()
	o.maxEntities = maxEntities
	direct, err := newFixture(t.pred, o)
	if err != nil {
		return err
	}
	t.cleanup = append(t.cleanup, direct.close)
	t.direct = direct
	tw, err := newTwins(t.pred, maxEntities)
	if err != nil {
		return err
	}
	t.cleanup = append(t.cleanup, func() error { tw.close(); return nil })
	t.ingestTwins = tw
	sink := newSinkWriter()
	for c := 0; c < liveChunks; c++ {
		body := in.prefillChunk(c)
		if err := errors.Join(post(direct.srv, sink, "/v1/ingest", body), tw.fill([][]byte{body})); err != nil {
			return err
		}
	}

	n := t.cfg.scaled(ticks) * (liveChunks + 1)
	first := t.newOps(n)
	var body []byte
	chunk := func(i int) []byte {
		if tick, c := i/(liveChunks+1), i%(liveChunks+1); c < liveChunks {
			body = in.liveChunk(body[:0], tick, c)
		} else {
			body = in.transientChunk(body[:0], tick)
		}
		return body
	}
	var parents []int
	if own != nil {
		var req []byte
		if parents, err = t.socketPass(first, n, func(i int) []byte {
			b := chunk(i)
			req = append(postHeader(req[:0], "/v1/ingest", "text/csv", len(b)), b...)
			return req
		}, func(i int, resp []byte) error { return checkIngest(resp, countRows(body)) }); err != nil {
			return err
		}
	}
	if parents, err = t.handlerPass("server.ingest", first, n, parents, direct.srv, http.MethodPost,
		func(int) string { return "/v1/ingest" }, chunk, func(i int, resp []byte) error {
			t.ingestBytes += float64(len(body))
			for name, dst := range map[string]*int{"skipped": &t.rowsSkipped, "rejected": &t.rowsRej} {
				v, err := intField(resp, name)
				if err != nil {
					return err
				}
				*dst += v
			}
			return nil
		}); err != nil {
		return err
	}
	for _, id := range parents {
		t.ingestNs += float64(t.rec.spans[id-1].EndNs - t.rec.spans[id-1].StartNs)
	}
	if _, err = t.pass("trace.scan", first, n, parents, func(i int) { chunk(i) },
		func(int) error { return scanOnly(body) }); err != nil {
		return err
	}
	var rows []csvRow
	var perr error
	parse := func(i int) { rows, perr = parseRows(chunk(i), rows) }
	ing, err := t.pass("shard.ingest", first, n, parents, parse, func(int) error {
		for i := range rows {
			tw.router.Ingest(rows[i].entity, rows[i].ts, &rows[i].vals)
		}
		return perr
	})
	if err != nil {
		return err
	}
	_, err = t.pass("trace.ring", first, n, ing, parse, func(int) error {
		for i := range rows {
			tw.store.Ingest(rows[i].entity, rows[i].ts, &rows[i].vals)
		}
		return perr
	})
	return err
}

// replayFits replays fits with a hook and a profiler attached, which is what
// tracing a fit costs: a hook switches on gradient-norm computation. Here
// the spans nest in time as well as in logic.
func (t *tracedRun) replayFits(wl workload) error {
	w, own := wl.(*trainFit)
	fits := ownFits
	if !own {
		w, fits = &trainFit{seed: subSeed(t.cfg.seed, streamProbe)}, probeFits
		if err := w.setUp(); err != nil {
			return err
		}
	}
	fits = t.cfg.scaled(fits)
	t.prof = nn.NewProfiler()
	first := t.newOps(fits)
	for i := 0; i < fits; i++ {
		op := first + i
		fit := t.rec.begin("core.fit", 0, op)
		epoch, last := 0, t.rec.now()
		cfg := fitConfig(0)
		cfg.Profiler = t.prof
		cfg.Hooks = []train.Hook{train.FuncHook{
			BatchEnd: func(train.BatchStats) {
				now := t.rec.now()
				if epoch == 0 {
					epoch = t.rec.add("train.epoch", fit, op, last, 0)
				}
				t.rec.add("train.batch", epoch, op, last, now)
				last = now
			},
			EpochEnd: func(s train.EpochStats) {
				last = t.rec.now()
				t.rec.spans[epoch-1].EndNs = last
				t.skippedBatches += s.SkippedBatches
				epoch = 0
			},
		}}
		p, err := w.fit(w.next+i, cfg)
		t.rec.end(fit)
		t.attempted++
		if _, err := fitMAE(p, err); err != nil {
			t.failed++
			return err
		}
		t.lastFit = p
	}
	return nil
}

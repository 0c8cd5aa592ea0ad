package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
)

// The traced run. After a short untraced phase of the workload (the base the
// tracing overhead and the proc.* numbers are taken against) it replays ops
// layer by layer. Each layer is called for every op of the replay in a loop
// of its own, as hot as the closed loop it stands for, and each call is one
// span whose parent is the span of the same op in the layer above:
//
//	forecast ops  http -> server -> shard -> {trace.window,
//	              core.prepare -> dataprep, core.forward -> nn.infer -> tensor.gemm}
//	window posts  http -> server -> {core.prepare -> ..., core.forward -> ...}
//	ingest chunks http -> server.ingest -> {trace.scan, shard.ingest -> trace.ring}
//	fits          core.fit -> train.epoch -> train.batch
//
// http and server are replayed only for the workload's own kind of op; the
// layers below them, which cost the same whatever the workload, are replayed
// in every traced run so that every run reports every layer. A layer's self
// time is the median of its spans minus the medians of its logical children:
// the replays are sequential, so self times are differences of medians, not
// measured intervals.

// Replay lengths.
const (
	forecastOps = 2000
	postOps     = 600 // a window post waits out the batcher's 2 ms twice per op
	ownTicks    = 30  // ingest-write: 210 chunks, 430k rows
	probeTicks  = 5
	ownFits     = 6 // 264 optimizer steps
	probeFits   = 2
)

// tracedRun carries the state of one traced run.
type tracedRun struct {
	cfg  runConfig
	w    io.Writer
	rec  *recorder
	m    values
	ops  int // op IDs handed out
	pred *core.Predictor
	fix  *fixture // the server the workload's own ops go to over the socket
	cli  *client
	// direct is the server ingest chunks go to at handler level.
	direct *fixture

	non200     int
	mismatches int
	attempted  int64
	failed     int64

	fleet       *fleetInputs // the entities the forecast replay read
	fleetTwins  *twins
	ingestTwins *twins

	ingestBytes, ingestNs float64 // handler-level ingest: bodies sent, time taken
	rowsSkipped, rowsRej  int
	prof                  *nn.Profiler
	skippedBatches        int
	lastFit               *core.Predictor

	cleanup []func() error
}

func (t *tracedRun) closeAll() error {
	var err error
	for i := len(t.cleanup) - 1; i >= 0; i-- {
		err = errors.Join(err, t.cleanup[i]())
	}
	return err
}

func runTraced(cfg runConfig, w io.Writer) (res result, err error) {
	t := &tracedRun{cfg: cfg, w: w, rec: newRecorder(), m: values{}}
	defer func() { err = errors.Join(err, t.closeAll()) }()

	wl, err := newWorkload(cfg.workload, cfg.seed, cfg.maxFits)
	if err != nil {
		return res, err
	}
	if err := wl.setUp(); err != nil {
		return res, errors.Join(fmt.Errorf("set-up: %w", err), wl.tearDown())
	}
	t.cleanup = append(t.cleanup, wl.tearDown)
	fmt.Fprintf(w, "# input digest %s\n", wl.inputDigest())
	t.m["proc.input_digest_ok"] = digestOK(cfg, wl)

	baseP50, err := t.untracedBase(wl, cfg.basePhase())
	if err != nil {
		return res, err
	}

	// The model and the server the replays run against: the workload's own
	// when it serves, a fresh one for train-fit.
	if s := wl.stack(); s != nil {
		t.pred, t.fix, t.cli = s.pred, s.fix, s.cli
	} else {
		if t.pred, err = fitServingModel(); err != nil {
			return res, err
		}
		if t.fix, err = newFixture(t.pred, defaultFixtureOptions()); err != nil {
			return res, err
		}
		t.cleanup = append(t.cleanup, t.fix.close)
		if t.cli, err = dial(t.fix.addr); err != nil {
			return res, err
		}
		t.cleanup = append(t.cleanup, func() error { t.cli.close(); return nil })
	}

	if err := t.replayForecasts(wl); err != nil {
		return res, fmt.Errorf("forecast replay: %w", err)
	}
	if w, ok := wl.(*windowPost); ok {
		if err := t.replayPosts(w); err != nil {
			return res, fmt.Errorf("window-post replay: %w", err)
		}
	}
	if err := t.replayIngest(wl); err != nil {
		return res, fmt.Errorf("ingest replay: %w", err)
	}
	if err := t.replayFits(wl); err != nil {
		return res, fmt.Errorf("fit replay: %w", err)
	}
	if err := t.probes(wl); err != nil {
		return res, fmt.Errorf("layer probes: %w", err)
	}
	t.layerMetrics(baseP50)

	path, err := t.rec.write(cfg.out, cfg.workload)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(w, "# %d spans of %d replayed ops written to %s\n", len(t.rec.spans), t.ops, path)
	t.printSelfTimes()

	res.Attempted, res.Failed = max(t.attempted, 1), t.failed
	res.Correct = t.failed == 0 && t.mismatches == 0 && t.non200 == 0
	if res.Metrics, err = t.m.emit(perLayer); err != nil {
		return res, err
	}
	printMetrics(w, perLayer, res.Metrics)
	return res, nil
}

// untracedBase runs the workload untraced for d after a short warm-up and
// takes the proc.* metrics over it. It returns the phase's op p50 in ns.
func (t *tracedRun) untracedBase(wl workload, d time.Duration) (float64, error) {
	warm, err := wl.run(min(t.cfg.warmup, time.Second), nil)
	if err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	before := snapshotProc()
	lat := &latencies{}
	t0 := time.Now()
	pc, err := wl.run(d, lat)
	elapsed := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("untraced phase: %w", err)
	}
	after := snapshotProc()
	pc.name = "untraced"
	printPhase(t.w, pc, elapsed)
	t.attempted += warm.sent + pc.sent
	t.failed += warm.failed + pc.failed
	ops := float64(max(pc.ok, 1))
	t.m["proc.allocs_per_op"] = float64(after.mallocs-before.mallocs) / ops
	t.m["proc.gc_cycles"] = float64(after.gcs - before.gcs)
	t.m["proc.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	t.m["proc.cpu_ms_per_op"] = float64(after.cpu-before.cpu) / 1e6 / ops
	return median(slices.Clone(lat.ns)), nil
}

// check counts a response of a replayed call.
func (t *tracedRun) check(status int) {
	t.attempted++
	if status != http.StatusOK {
		t.non200++
		t.failed++
	}
}

// compare counts a forecast that differs from the oracle's.
func (t *tracedRun) compare(got, want []float64) {
	if !slices.Equal(got, want) {
		t.mismatches++
	}
}

// call invokes a server's handler directly and returns the status it wrote.
func call(h http.Handler, sink *sinkWriter, method, path string, body []byte) (int, error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	sink.reset()
	h.ServeHTTP(sink, req)
	return sink.status, nil
}

// serve is call with the response counted.
func (t *tracedRun) serve(h http.Handler, sink *sinkWriter, method, path string, body []byte) error {
	status, err := call(h, sink, method, path, body)
	if err == nil {
		t.check(status)
	}
	return err
}

// post is call for set-up: a POST that must be answered 200.
func post(h http.Handler, sink *sinkWriter, path string, body []byte) error {
	status, err := call(h, sink, http.MethodPost, path, body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST %s answered %d: %s", path, status, sink.body.Bytes())
	}
	return err
}

// digestOK is 1 when the workload's generated inputs hash to the digest
// recorded for the seed, or, for a seed with none recorded, when generating
// them a second time gives the same digest.
func digestOK(cfg runConfig, wl workload) float64 {
	want, recorded := goldenDigests[cfg.workload][cfg.seed]
	if !recorded {
		again, err := newWorkload(cfg.workload, cfg.seed, cfg.maxFits)
		if err != nil {
			return 0
		}
		again.generate()
		want = again.inputDigest()
	}
	if wl.inputDigest() == want {
		return 1
	}
	return 0
}

// goldenDigests are the input digests of the seeds the benchmark was defined
// with. A change here means the generator or the harness's formatting of its
// output changed, and numbers before and after it are not comparable.
var goldenDigests = map[string]map[uint64]string{
	wEntityRead:  {1: "60f69c3f6f88f986", 2: "fa35411a76839c58"},
	wWindowPost:  {1: "6087479fe599d4f9", 2: "8469626c841fcb14"},
	wIngestWrite: {1: "35f24dbe3b7ba379", 2: "ecc18a18fc3b6ca4"},
	wTrainFit:    {1: "e3717b3bc1762aee", 2: "a6c665a5cd3313d8"},
}

// layerMetrics turns the spans and counts of the replays into metrics.
// baseP50 is the untraced phase's op p50 in ns.
func (t *tracedRun) layerMetrics(baseP50 float64) {
	const rowsPerChunk = chunkEntities * chunkSamples
	d := t.rec.durations()
	ns := func(name string) float64 { return median(d[name]) }
	us := func(name string) float64 { return ns(name) / 1e3 }
	m := t.m

	// The workload's own path: its handler, what the handler calls, and the
	// span the tracing overhead is taken on.
	handler, below, top := "", []string(nil), "http"
	switch t.cfg.workload {
	case wEntityRead:
		handler, below = "server", []string{"shard"}
	case wWindowPost:
		handler, below = "server", []string{"core.prepare", "core.forward"}
	case wIngestWrite:
		handler, below = "server.ingest", []string{"trace.scan", "shard.ingest"}
	case wTrainFit:
		top = "core.fit" // no request: the socket and the server do nothing
	}
	m["server.http_us"] = us("http")
	m["server.handler_us"] = 0
	m["server.net_self_us"] = 0
	m["server.self_us"] = 0
	if handler != "" {
		m["server.handler_us"] = us(handler)
		m["server.net_self_us"] = us("http") - us(handler)
		m["server.self_us"] = us(handler)
		for _, b := range below {
			m["server.self_us"] -= us(b)
		}
	}
	m["server.ingest_mb_per_s"] = t.ingestBytes / 1e6 / (t.ingestNs / 1e9)
	m["server.non200"] = float64(t.non200)

	m["shard.forecast_us"] = us("shard")
	m["shard.self_us"] = us("shard") - us("trace.window") - us("core.prepare") - us("core.forward")
	m["shard.ingest_ns_per_row"] = ns("shard.ingest") / rowsPerChunk

	scanned := 0.0
	for _, x := range d["trace.scan"] {
		scanned += x
	}
	m["trace.scan_mb_per_s"] = t.ingestBytes / 1e6 / (scanned / 1e9)
	m["trace.ring_ingest_ns"] = ns("trace.ring") / rowsPerChunk
	m["trace.window_ns"] = ns("trace.window")
	m["trace.evictions"] = float64(t.ingestTwins.router.Evicted())
	m["trace.rows_skipped"] = float64(t.rowsSkipped)
	m["trace.rows_rejected"] = float64(t.rowsRej)

	m["dataprep.serve_us"] = us("dataprep")
	m["core.prepare_us"] = us("core.prepare")
	m["core.forward_b1_us"] = us("core.forward")
	m["core.oracle_mismatch"] = float64(t.mismatches)
	m["nn.infer_b1_us"] = us("nn.infer")

	m["train.epoch_ms"] = ns("train.epoch") / 1e6
	m["train.batch_us"] = us("train.batch")
	m["train.skipped_batches"] = float64(t.skippedBatches)
	for _, g := range []string{"tcn", "attention", "dense"} {
		m["nn."+g+".fwd_us"], m["nn."+g+".bwd_us"] = 0, 0
	}
	for _, s := range t.prof.Stats() {
		g := map[string]string{"attention": "attention", "fc": "dense", "out": "dense"}[s.Name]
		if len(s.Name) > 3 && s.Name[:3] == "tcn" {
			g = "tcn"
		}
		if g == "" || s.FwdCalls == 0 || s.BwdCalls == 0 {
			continue // "last" only picks a time step
		}
		m["nn."+g+".fwd_us"] += float64(s.Fwd) / float64(s.FwdCalls) / 1e3
		m["nn."+g+".bwd_us"] += float64(s.Bwd) / float64(s.BwdCalls) / 1e3
	}

	m["proc.trace_overhead_pct"] = 100 * (ns(top)/baseP50 - 1)
}

// selfTime is one row of the per-layer budget.
type selfTime struct {
	name         string
	n            int
	median, self float64 // ns
}

// selfTimes derives each layer's self time: the median of its spans minus,
// for every layer its spans are the logical parents of, that layer's median
// times how many of its spans one parent span has.
func (r *recorder) selfTimes() []selfTime {
	d := r.durations()
	kids := make(map[string]map[string]int) // parent name -> child name -> child spans
	var order []string
	for _, s := range r.spans {
		if _, seen := kids[s.Name]; !seen {
			kids[s.Name] = make(map[string]int)
			order = append(order, s.Name)
		}
	}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[r.spans[s.Parent-1].Name][s.Name]++
		}
	}
	var out []selfTime
	for _, name := range order {
		st := selfTime{name: name, n: len(d[name]), median: median(d[name])}
		st.self = st.median
		for kid, n := range kids[name] {
			st.self -= median(d[kid]) * float64(n) / float64(st.n)
		}
		out = append(out, st)
	}
	return out
}

// printSelfTimes prints the per-layer budget.
func (t *tracedRun) printSelfTimes() {
	fmt.Fprintln(t.w, "# layer budget (us): median of the layer's spans, and self = median minus the medians of its")
	fmt.Fprintln(t.w, "# logical children; replays are sequential, so self times are differences of medians")
	for _, st := range t.rec.selfTimes() {
		if st.name != "op" {
			fmt.Fprintf(t.w, "#   %-14s n=%-6d median %12.2f   self %12.2f\n", st.name, st.n, st.median/1e3, st.self/1e3)
		}
	}
}

package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataprep"
	"repro/internal/train"
)

// phaseCount is the sent/succeeded/failed line printed for every phase.
// Counts are in ops: requests on the forecast workloads, rows plus forecasts
// on ingest-write, training windows on train-fit.
type phaseCount struct {
	name             string
	sent, ok, failed int64
	firstErr         error
}

func (p *phaseCount) fail(n int64, err error) {
	p.failed += n
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// workload is one of the four standing workloads. setUp may be called again
// after tearDown; run continues the request sequence where the last call
// stopped, so the sequence depends on how long the phases are only in where
// it ends.
type workload interface {
	// generate makes the inputs from the seed; setUp calls it.
	generate()
	setUp() error
	tearDown() error
	// run issues ops for d. Latencies go to lat when it is not nil; ops
	// counts successful ops, the numerator of ops_per_s.
	run(d time.Duration, lat *latencies) (phaseCount, error)
	// verify scores the checked forecasts against the generator's
	// continuation and against the oracle, after the measured phase.
	verify() (outputCheck, error)
	inputDigest() string
	// tailWindow is the window length of op_tail_ms; 0 means the tail is a
	// percentile of the whole phase.
	tailWindow() time.Duration
	// stack is the serving stack of a request workload, nil for train-fit.
	stack() *serving
}

// outputCheck is the outcome of checking the program's outputs.
type outputCheck struct {
	mae        float64 // forecast_mae, CPU %
	checked    int     // forecasts scored
	mismatches int     // checked forecasts not bitwise equal to the oracle's
}

func newWorkload(name string, seed uint64, maxFits int) (workload, error) {
	switch name {
	case wEntityRead:
		return &entityRead{seed: seed}, nil
	case wWindowPost:
		return &windowPost{seed: seed}, nil
	case wIngestWrite:
		return &ingestWrite{seed: seed}, nil
	case wTrainFit:
		return &trainFit{seed: seed, maxFits: maxFits}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// serving is what the three request workloads share: the fitted model, the
// server on loopback and one keep-alive connection to it.
type serving struct {
	pred *core.Predictor
	fix  *fixture
	cli  *client
}

func (s *serving) start(o fixtureOptions) error {
	var err error
	if s.pred, err = fitServingModel(); err != nil {
		return err
	}
	if s.fix, err = newFixture(s.pred, o); err != nil {
		return err
	}
	s.cli, err = dial(s.fix.addr)
	return err
}

func (s *serving) stack() *serving { return s }

func (s *serving) tearDown() error {
	if s.cli != nil {
		s.cli.close()
	}
	if s.fix == nil {
		return nil
	}
	return s.fix.close()
}

// forecast sends one forecast request and returns the checked values,
// appended to dst, with the round-trip time.
func (s *serving) forecast(dst []float64, req []byte) ([]float64, time.Duration, time.Time, error) {
	t0 := time.Now()
	status, body, err := s.cli.do(req)
	t1 := time.Now()
	if err != nil {
		return dst, 0, t1, connError{err}
	}
	if status != http.StatusOK {
		return dst, t1.Sub(t0), t1, fmt.Errorf("status %d: %s", status, body)
	}
	dst, err = parseForecast(dst, body)
	return dst, t1.Sub(t0), t1, err
}

// connError is a failure of the connection itself, after which a run
// cannot go on; any other error fails one op.
type connError struct{ error }

// scored is one forecast kept for verify: what was served, the window it
// was made from and the generator's continuation of that window.
type scored struct {
	served []float64
	window [][]float64
	truth  []float64
}

func verifyScored(p *core.Predictor, kept []scored) (outputCheck, error) {
	var v outputCheck
	sum := 0.0
	for _, s := range kept {
		want, err := p.ForecastFrom(s.window)
		if err != nil {
			return v, fmt.Errorf("oracle forecast: %w", err)
		}
		if !slices.Equal(want, s.served) {
			v.mismatches++
		}
		for i, f := range s.served {
			sum += math.Abs(f - s.truth[i])
		}
		v.checked++
	}
	if v.checked == 0 {
		return v, errors.New("no forecast was checked")
	}
	v.mae = sum / float64(v.checked*horizon)
	return v, nil
}

// lapLoop sends one forecast request per entity, round-robin, and keeps the
// first lap's forecasts for verify.
type lapLoop struct {
	serving
	reqs   [][]byte
	window func(e int) [][]float64
	truth  func(e int) []float64
	next   int
	kept   []scored
}

func (l *lapLoop) run(d time.Duration, lat *latencies) (phaseCount, error) {
	var pc phaseCount
	var buf []float64
	for start := time.Now(); ; {
		e := l.next % len(l.reqs)
		f, rtt, end, err := l.forecast(buf[:0], l.reqs[e])
		pc.sent++
		ok := int64(0)
		switch {
		case errors.As(err, new(connError)):
			return pc, err
		case err != nil:
			pc.fail(1, err)
		default:
			ok = 1
			pc.ok++
			if l.next < len(l.reqs) {
				l.kept = append(l.kept, scored{slices.Clone(f), l.window(e), l.truth(e)})
			}
		}
		buf = f
		l.next++
		if lat != nil {
			lat.add(rtt, end.Sub(start), ok)
		}
		if end.Sub(start) >= d {
			return pc, nil
		}
	}
}

func (l *lapLoop) verify() (outputCheck, error) { return verifyScored(l.pred, l.kept) }

// entityRead is the fleet read path: GET /v1/forecast/{entity} round-robin
// over resident entities whose rings set-up filled through /v1/ingest.
type entityRead struct {
	lapLoop
	seed uint64
	in   *fleetInputs
}

func (w *entityRead) generate() {
	w.in = newFleetInputs(fleetEntities, subSeed(w.seed, streamFleet))
}

func (w *entityRead) setUp() error {
	w.generate()
	w.lapLoop = lapLoop{reqs: w.in.gets, window: w.in.ringWindow, truth: w.in.truth}
	if err := w.start(defaultFixtureOptions()); err != nil {
		return err
	}
	return ingest(w.cli, w.in.chunks)
}

func (w *entityRead) tailWindow() time.Duration { return time.Second }
func (w *entityRead) inputDigest() string       { return digestOf(w.in) }

// windowPost is the stateless path: POST /v1/forecast with the window in the
// body, through the JSON decoder and the delay-gather batcher; no rings, no
// shard router.
type windowPost struct {
	lapLoop
	seed uint64
	in   *postInputs
}

func (w *windowPost) generate() { w.in = newPostInputs(subSeed(w.seed, streamPost)) }

func (w *windowPost) setUp() error {
	w.generate()
	w.lapLoop = lapLoop{reqs: w.in.requests, window: w.in.window, truth: w.in.truth}
	return w.start(defaultFixtureOptions())
}

func (w *windowPost) tailWindow() time.Duration { return 5 * time.Second }
func (w *windowPost) inputDigest() string       { return digestOf(w.in) }

// ingestWrite writes beside reads on the same rings. A tick posts liveChunks
// chunks of new samples for long-lived entities, each followed by
// readsPerChunk forecasts for entities of that chunk, and one chunk of
// transient entities. One op is one accepted row; the op latency is one
// chunk POST; the forecasts count in ok_ratio and not in ops_per_s.
type ingestWrite struct {
	serving
	seed uint64
	in   *ingestInputs
	step int // tick*(liveChunks+1) + chunk
	body []byte
	req  []byte
	kept []scored
}

const keptReads = 2048 // forecasts of the run's first reads that verify scores

func (w *ingestWrite) generate() { w.in = newIngestInputs(subSeed(w.seed, streamPool)) }

func (w *ingestWrite) setUp() error {
	w.generate()
	w.step, w.kept = 0, nil
	o := defaultFixtureOptions()
	o.maxEntities = maxEntities
	if err := w.start(o); err != nil {
		return err
	}
	for c := 0; c < liveChunks; c++ {
		if err := ingest(w.cli, [][]byte{w.in.prefillChunk(c)}); err != nil {
			return err
		}
	}
	return nil
}

// chunkRequest builds the POST for the chunk at w.step.
func (w *ingestWrite) chunkRequest() (req []byte, tick, chunk int) {
	tick, chunk = w.step/(liveChunks+1), w.step%(liveChunks+1)
	if chunk < liveChunks {
		w.body = w.in.liveChunk(w.body[:0], tick, chunk)
	} else {
		w.body = w.in.transientChunk(w.body[:0], tick)
	}
	w.req = append(postHeader(w.req[:0], "/v1/ingest", "text/csv", len(w.body)), w.body...)
	return w.req, tick, chunk
}

func (w *ingestWrite) run(d time.Duration, lat *latencies) (phaseCount, error) {
	const rows = chunkEntities * chunkSamples
	var pc phaseCount
	var buf []float64
	for start := time.Now(); ; {
		req, tick, chunk := w.chunkRequest()
		t0 := time.Now()
		status, resp, err := w.cli.do(req)
		end := time.Now()
		if err != nil {
			return pc, err
		}
		pc.sent += rows
		accepted := int64(rows)
		if status != http.StatusOK {
			accepted = 0
			pc.fail(rows, fmt.Errorf("ingest answered %d: %s", status, resp))
		} else if err := checkIngest(resp, rows); err != nil {
			got, _ := intField(resp, "rows") // 0 when the field is missing
			rej, _ := intField(resp, "rejected")
			accepted = int64(min(max(got-rej, 0), rows))
			pc.fail(rows-accepted, err)
		}
		pc.ok += accepted
		if lat != nil {
			lat.add(end.Sub(t0), end.Sub(start), accepted)
		}
		for g := 0; chunk < liveChunks && g < readsPerChunk; g++ {
			e := readEntity(tick, chunk, g)
			f, _, _, err := w.forecast(buf[:0], w.in.gets[e])
			pc.sent++
			switch {
			case errors.As(err, new(connError)):
				return pc, err
			case err != nil:
				pc.fail(1, err)
			default:
				pc.ok++
				if truth := w.in.truth(e, tick); truth != nil && len(w.kept) < keptReads {
					w.kept = append(w.kept, scored{slices.Clone(f), w.in.ringWindow(e, tick), truth})
				}
			}
			buf = f
		}
		w.step++
		if time.Since(start) >= d {
			return pc, nil
		}
	}
}

func (w *ingestWrite) verify() (outputCheck, error) { return verifyScored(w.pred, w.kept) }

// A tick posts 186 chunks a second on the host the benchmark was defined on,
// so a window must be 10 s long to hold 1000 with room to spare.
func (w *ingestWrite) tailWindow() time.Duration { return 10 * time.Second }
func (w *ingestWrite) inputDigest() string       { return digestOf(w.in) }

// trainFit is the per-entity fit, one series after another, in process: the
// control for serving-side changes and the place a GOMAXPROCS>1 regression
// in Fit shows.
type trainFit struct {
	seed    uint64
	maxFits int // 0: as many as the phase holds
	in      *trainInputs
	next    int
	windows int64 // training windows per epoch, the same for every series
	maes    []float64
}

// forecast_mae is taken over the run's first scoredFits fits, so that it does
// not depend on how many fits the host completes. It is their median: the
// series differ enough that the mean of 64 moves 9 % between seeds.
const scoredFits = 64

func (w *trainFit) generate() { w.in = newTrainInputs(subSeed(w.seed, streamTrain)) }

func (w *trainFit) setUp() error {
	w.generate()
	w.next, w.maes = 0, nil
	tr, _, err := splitForFit(w.in.series[0].Matrix())
	w.windows = int64(tr.Len())
	return err
}

func (w *trainFit) tearDown() error { return nil }
func (w *trainFit) stack() *serving { return nil }

// fit runs fit number i of the sequence and returns the predictor.
func (w *trainFit) fit(i int, cfg core.PredictorConfig) (*core.Predictor, error) {
	cfg.Seed = w.seed + uint64(i)
	p := core.NewPredictor(cfg)
	return p, p.Fit(w.in.series[i%trainSeries].Matrix(), cpu)
}

func (w *trainFit) run(d time.Duration, lat *latencies) (phaseCount, error) {
	var pc phaseCount
	for start, n := time.Now(), 0; ; n++ {
		t0 := time.Now()
		p, err := w.fit(w.next, fitConfig(0))
		end := time.Now()
		ops := w.windows * int64(fitConfig(0).Epochs)
		pc.sent += ops
		mae, merr := fitMAE(p, err)
		if merr != nil {
			pc.fail(ops, merr)
		} else {
			pc.ok += ops
			if len(w.maes) < scoredFits && len(w.maes) == w.next {
				w.maes = append(w.maes, mae)
			}
		}
		w.next++
		if lat != nil {
			lat.add(end.Sub(t0), end.Sub(start), ops)
		}
		if time.Since(start) >= d || (w.maxFits > 0 && n+1 >= w.maxFits) {
			return pc, nil
		}
	}
}

// fitMAE is the fitted predictor's held-out MAE in CPU %: TestMetrics works
// at the normalized scale, which the target's fitted range maps back.
func fitMAE(p *core.Predictor, fitErr error) (float64, error) {
	if fitErr != nil {
		return 0, fitErr
	}
	rep, err := p.TestMetrics()
	if err != nil {
		return 0, err
	}
	lo, hi := p.NormBounds()
	mae := rep.MAE * (hi[cpu] - lo[cpu])
	if math.IsNaN(mae) || math.IsInf(mae, 0) {
		return 0, fmt.Errorf("held-out MAE is %v", mae)
	}
	return mae, nil
}

func (w *trainFit) verify() (outputCheck, error) {
	if len(w.maes) == 0 {
		return outputCheck{}, errors.New("no fit was scored")
	}
	return outputCheck{mae: median(slices.Clone(w.maes)), checked: len(w.maes)}, nil
}

func (w *trainFit) tailWindow() time.Duration { return 0 }
func (w *trainFit) inputDigest() string       { return digestOf(w.in) }

// splitForFit runs the data pipeline Fit runs before training, through the
// same public functions, and returns the train and validation splits.
func splitForFit(series [][]float64) (tr, va train.Dataset, err error) {
	cleaned := dataprep.Clean(series)
	normed := dataprep.FitNormalizer(cleaned).Transform(cleaned)
	sel := dataprep.Select(normed, dataprep.ScreenTopHalf(normed, cpu))
	ds, err := dataprep.BuildSupervised(dataprep.ExpandHorizontal(sel, expandFactor),
		dataprep.WindowConfig{Window: window, Horizon: horizon, Target: 0})
	if err != nil {
		return tr, va, err
	}
	tr, va, _, err = train.Split(ds, 0.6, 0.2)
	return tr, va, err
}

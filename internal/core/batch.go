package core

import (
	"errors"
	"fmt"

	"repro/internal/dataprep"
)

// This file is the batched serving path: PrepareInput runs the
// per-request data pipeline (read-only against the fitted predictor, so
// many requests can prepare concurrently), and an engine
// (ShardInferencer) stacks prepared windows into one grad-free arena
// forward. Because every forward kernel is row-independent (pinned by
// TestGemmRowIndependence and the nn equivalence suite), each row of a
// batched product is bitwise identical to running that request alone —
// micro-batching and power-of-two padding never change a single answer.

// PreparedInput is one request's model-ready window: cleaned,
// normalized, screened and expanded, flattened to [channels × window]
// row-major. Build it with Predictor.PrepareInput.
type PreparedInput struct {
	data     []float64
	channels int
}

// PrepareInput validates raw indicator history (same layout as Fit) and
// runs the stored data pipeline — clean, normalize, screen, expand —
// returning a model-ready window. It only reads the fitted predictor
// state, so it is safe to call from many goroutines at once; errors here
// are client errors (bad shape, too little history), distinct from the
// server-side failures a forward can hit.
func (p *Predictor) PrepareInput(series [][]float64) (*PreparedInput, error) {
	sel, cleanedLen, err := p.prepareServe(series)
	if err != nil {
		return nil, err
	}
	if len(sel) == 0 || len(sel[0]) < p.Cfg.Window {
		return nil, fmt.Errorf("core: need at least %d complete samples, have %d",
			p.MinHistory(), cleanedLen)
	}
	return lastWindow(sel, p.Cfg.Window), nil
}

// lastWindow flattens the trailing w samples of every prepared channel
// into a model-ready window.
func lastWindow(sel [][]float64, w int) *PreparedInput {
	c, n := len(sel), len(sel[0])
	in := &PreparedInput{data: make([]float64, c*w), channels: c}
	for ci := 0; ci < c; ci++ {
		copy(in.data[ci*w:(ci+1)*w], sel[ci][n-w:])
	}
	return in
}

// prepareServe runs the stored (frozen-at-fit) data pipeline over raw
// indicator history: clean, normalize, screen, expand. Shared by
// PrepareInput (which keeps only the trailing window) and FineTune
// (which windows the whole prepared series into supervised pairs). It
// only reads state fixed at Fit or load, so concurrent callers need no
// lock.
func (p *Predictor) prepareServe(series [][]float64) (sel [][]float64, cleanedLen int, err error) {
	if p.norm == nil {
		return nil, 0, errors.New("core: predictor not fitted")
	}
	if len(series) != len(p.norm.Min) {
		return nil, 0, fmt.Errorf("core: expected %d indicator series, got %d", len(p.norm.Min), len(series))
	}
	cleaned := dataprep.Clean(series)
	if len(cleaned) == 0 || len(cleaned[0]) == 0 {
		return nil, 0, errors.New("core: no complete records in input")
	}
	normed := p.norm.Transform(cleaned)
	sel = dataprep.Select(normed, p.selected)
	if p.Cfg.Scenario == MulExp {
		sel = p.expand(sel)
	}
	return sel, len(cleaned[0]), nil
}

// ForecastBatchGen runs prepared windows through the predictor's own
// engine (see ShardInferencer): each request's denormalized Horizon-step
// forecast, in input order, and the generation that computed them.
// Results are bitwise identical to ForecastFrom per request at any batch
// size or worker count. Calls serialize on the engine's arenas and on
// nothing else; serving at scale runs on engines of its own
// (NewShardInferencer), one per shard worker.
func (p *Predictor) ForecastBatchGen(inputs []*PreparedInput) ([][]float64, int64, error) {
	p.engineMu.Lock()
	defer p.engineMu.Unlock()
	return p.engine.ForecastBatchGen(inputs)
}

// ForecastBatch is ForecastBatchGen without the generation.
func (p *Predictor) ForecastBatch(inputs []*PreparedInput) ([][]float64, error) {
	res, _, err := p.ForecastBatchGen(inputs)
	return res, err
}

// The float32 serving tier was deleted; this refusal survives only for
// benchmark/probes.go, which reads the error as "this number is
// float64", and goes when that probe does.
func (p *Predictor) EnableFloat32() (any, error) {
	return nil, errors.New("core: the float32 serving tier was removed")
}

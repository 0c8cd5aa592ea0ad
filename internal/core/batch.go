package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

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
//
// The pipeline runs as one pass over the history's tail, by the plan
// frozen at fit or load (see windowPlan): the last Window + trim complete
// rows are found from the end, and each channel's (v − min)/span is
// written straight into the window. Window and error text are bitwise
// those of the staged pipeline (prepareServe + lastWindow, pinned by
// FuzzPrepareWindow), which still serves Fit and FineTune.
func (p *Predictor) PrepareInput(series [][]float64) (*PreparedInput, error) {
	defer dataprep.ObserveServe(time.Now())
	if p.norm == nil {
		return nil, errors.New("core: predictor not fitted")
	}
	if len(series) != len(p.norm.Min) {
		return nil, fmt.Errorf("core: expected %d indicator series, got %d", len(p.norm.Min), len(series))
	}
	w, plan := p.Cfg.Window, &p.plan
	// A window needs its Window steps and the trim rows before them; a
	// history too short to hold them is scanned whole, for the count the
	// error reports.
	n := len(series[0])
	need, fits := n, w <= n && plan.trim <= n-w
	if fits {
		need = w + plan.trim
	}
	var buf [64]int // on the stack: windows up to 64 rows allocate no index
	rows := buf[:0]
	if need > len(buf) {
		rows = make([]int, 0, need)
	}
	// The newest need complete rows, newest first.
	for t := n - 1; t >= 0 && len(rows) < need; t-- {
		if complete(series, t) {
			rows = append(rows, t)
		}
	}
	if !fits || len(rows) < need {
		// The scan saw every row, so len(rows) is the history's count of
		// complete ones.
		if len(rows) == 0 {
			return nil, errors.New("core: no complete records in input")
		}
		return nil, fmt.Errorf("core: need at least %d complete samples, have %d", p.MinHistory(), len(rows))
	}
	slices.Reverse(rows)
	in := &PreparedInput{data: make([]float64, len(plan.channels)*w), channels: len(plan.channels)}
	for c, ch := range plan.channels {
		s, out := series[ch.ind], in.data[c*w:(c+1)*w]
		at := rows[plan.trim-ch.lag : plan.trim-ch.lag+w]
		if ch.diff {
			for j, prev := range rows[plan.trim-1 : plan.trim-1+w] {
				out[j] = ch.scale(s[at[j]]) - ch.scale(s[prev])
			}
			continue
		}
		for j, t := range at {
			out[j] = ch.scale(s[t])
		}
	}
	return in, nil
}

// complete reports whether every indicator is finite at time t — the
// rows dataprep.Clean keeps.
func complete(series [][]float64, t int) bool {
	for _, s := range series {
		if v := s[t]; math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// windowPlan is the serving pipeline frozen at fit or load, channel by
// channel: which raw indicator each model input channel reads, how many
// samples back, and whether it is a first difference. One plan covers
// every scenario and expansion mode; trim is the count of complete rows
// the expansion consumes before the window's first step (0 without
// expansion).
type windowPlan struct {
	channels []planChannel
	trim     int
}

// planChannel is one model input channel: indicator ind lag samples
// back, min–max scaled by the fitted normalizer, or (diff) the scaled
// indicator's step from the sample before.
type planChannel struct {
	ind       int
	lag       int
	diff      bool
	min, span float64
}

// scale is dataprep.Normalizer.Transform for one value of the channel's
// indicator.
func (ch *planChannel) scale(v float64) float64 {
	if ch.span > 0 {
		return (v - ch.min) / ch.span
	}
	return 0
}

// freezePlan records the plan of the pipeline the predictor was fitted
// or loaded with: the screened indicators in order (target first), each
// expanded as p.expand lays it out — lags 0..f−1 (f the expansion
// factor, the weighted mode's own factor, or 1 without expansion), then
// the difference channel of ExpandLagsDiff.
func (p *Predictor) freezePlan() {
	plan := windowPlan{}
	factor, diff := 1, false
	if p.Cfg.Scenario == MulExp {
		factor = p.Cfg.ExpandFactor
		plan.trim = factor - 1
		if p.Cfg.Expansion == ExpandLagsDiff {
			diff = true
			plan.trim = max(plan.trim, 1) // the difference needs a sample before
		}
	}
	for si, ind := range p.selected {
		f := factor
		if p.Cfg.Scenario == MulExp && p.Cfg.Expansion == ExpandWeighted {
			f = p.weightedFactors[si]
		}
		ch := planChannel{ind: ind, min: p.norm.Min[ind], span: p.norm.Max[ind] - p.norm.Min[ind]}
		for ch.lag = 0; ch.lag < f; ch.lag++ {
			plan.channels = append(plan.channels, ch)
		}
		if diff {
			ch.lag, ch.diff = 0, true
			plan.channels = append(plan.channels, ch)
		}
	}
	p.plan = plan
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
// indicator history stage by stage: clean, normalize, screen, expand.
// FineTune windows the whole prepared series into supervised pairs; its
// trailing window (lastWindow) is the oracle PrepareInput's one pass is
// tested against. It only reads state fixed at Fit or load, so
// concurrent callers need no lock.
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
// (NewShardInferencer), one per shard.
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

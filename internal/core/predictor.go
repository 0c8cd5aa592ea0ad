package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dataprep"
	"repro/internal/metrics"
	"repro/internal/nn"
	obstrace "repro/internal/obs/trace"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Scenario selects the input-feature regime of Table II.
type Scenario int

// The three experimental scenarios of the paper.
const (
	// Uni feeds only the target indicator's own history.
	Uni Scenario = iota
	// Mul feeds the top half of all indicators by |PCC| with the target.
	Mul
	// MulExp is Mul plus horizontal expansion in the time dimension
	// (Fig. 4b) — the paper's full method.
	MulExp
)

// String returns the scenario name as used in Table II.
func (s Scenario) String() string {
	switch s {
	case Uni:
		return "Uni"
	case Mul:
		return "Mul"
	case MulExp:
		return "Mul-Exp"
	}
	return "unknown"
}

// ExpansionMode selects how Mul-Exp expands features in the time
// dimension.
type ExpansionMode int

// The expansion modes. ExpandLags is the paper's published method
// (Fig. 4b); the other two implement the improvements its discussion
// (Sec. V-C) leaves as future work.
const (
	// ExpandLags replicates each indicator into lagged copies (Fig. 4b).
	ExpandLags ExpansionMode = iota
	// ExpandLagsDiff additionally appends a first-order difference channel
	// per indicator.
	ExpandLagsDiff
	// ExpandWeighted gives each indicator an expansion factor proportional
	// to its |PCC| with the target.
	ExpandWeighted
)

// String returns the mode name.
func (m ExpansionMode) String() string {
	switch m {
	case ExpandLags:
		return "lags"
	case ExpandLagsDiff:
		return "lags+diff"
	case ExpandWeighted:
		return "weighted"
	}
	return "unknown"
}

// PredictorConfig configures the end-to-end Algorithm 1 pipeline.
type PredictorConfig struct {
	Scenario Scenario
	// Expansion selects the Mul-Exp expansion strategy (default: the
	// paper's Fig. 4b lagged copies). Ignored in Uni/Mul scenarios.
	Expansion ExpansionMode
	// Window is the input sequence length L (default 32).
	Window int
	// Horizon is the number of future steps k to predict (default 1).
	Horizon int
	// ExpandFactor is the horizontal expansion factor (default 3, the
	// paper's Fig. 4b example: r_{t−2}, r_{t−1}, r_t).
	ExpandFactor int

	// Model configures the RPTCN network. InChannels and Horizon are
	// filled in by the predictor.
	Model Config

	// Training hyperparameters. Defaults: 60 epochs, batch 32, Adam 1e-3,
	// early-stopping patience 10 (the paper's Keras callback setting).
	Epochs       int
	BatchSize    int
	LearningRate float64
	Patience     int
	Seed         uint64
	// TrainFrac/ValidFrac default to the paper's 6:2:2 split.
	TrainFrac, ValidFrac float64
	// Checkpoint enables periodic crash-safe training checkpoints (and
	// resume) when its Dir is set; see train.CheckpointConfig. Runtime
	// wiring, excluded from model serialization.
	Checkpoint train.CheckpointConfig `json:"-"`
	// Guard enables the training divergence guards (skip NaN/exploding
	// batches, roll back on NaN validation loss); see train.GuardConfig.
	Guard train.GuardConfig `json:"-"`
	// Hooks observe training (per-epoch metrics/logging); see train.Hook.
	// Excluded from model serialization: hooks are runtime wiring.
	Hooks []train.Hook `json:"-"`
	// Tracer records a span tree of the whole pipeline: a "predictor.fit"
	// root with dataprep.* stage children and the nested train.fit run.
	// Runtime wiring like Hooks; nil (or disabled) is free.
	Tracer *obstrace.Tracer `json:"-"`
	// Profiler, when set, times every model stage (see Model.Profile);
	// read the breakdown with Profiler.Table().
	Profiler *nn.Profiler `json:"-"`
}

func (c *PredictorConfig) fillDefaults() {
	if c.Window == 0 {
		c.Window = 32
	}
	if c.Horizon == 0 {
		c.Horizon = 1
	}
	if c.ExpandFactor == 0 {
		c.ExpandFactor = 3
	}
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LearningRate == 0 {
		c.LearningRate = 1e-3
	}
	if c.Patience == 0 {
		c.Patience = 10
	}
	if c.TrainFrac == 0 {
		c.TrainFrac = 0.6
	}
	if c.ValidFrac == 0 {
		c.ValidFrac = 0.2
	}
}

// Predictor runs Algorithm 1 with an RPTCN model: data cleaning,
// normalization, correlation screening, horizontal expansion, supervised
// windowing, training with early stopping, and k-step forecasting.
type Predictor struct {
	Cfg PredictorConfig

	norm     *dataprep.Normalizer
	selected []int // screened indicator indices into the original series
	target   int
	history  *train.History
	// weightedFactors are the per-indicator expansion factors of the
	// ExpandWeighted mode, fixed at fit time (see fitExpansion).
	weightedFactors []int
	// prepared is the fit's fully prepared channel series (post
	// expansion, target first), retained for Forecast.
	prepared [][]float64
	// plan is the serving pipeline PrepareInput runs in one pass, frozen
	// with norm, selected and weightedFactors (see freezePlan).
	plan windowPlan

	// serving is the published snapshot — model, generation, held-out
	// split — that every engine loads once per batch (see generation.go).
	// swapMu serializes SwapModel's check and publish; no read path takes
	// it.
	serving atomic.Pointer[snapshot]
	swapMu  sync.Mutex

	// engine is the predictor's own engine, behind ForecastBatchGen and
	// everything built on it; engineMu guards its arenas and nothing else.
	engineMu sync.Mutex
	engine   ShardInferencer
}

// NewPredictor returns an unfitted predictor.
func NewPredictor(cfg PredictorConfig) *Predictor {
	cfg.fillDefaults()
	p := &Predictor{Cfg: cfg}
	p.engine.p = p
	return p
}

// prepare runs the data pipeline of Algorithm 1 lines 1–5 and returns the
// prepared channel matrix, the target channel first. Stage spans are
// recorded as children of parent (nil-safe).
func (p *Predictor) prepare(series [][]float64, target int, parent *obstrace.Span) ([][]float64, error) {
	if target < 0 || target >= len(series) {
		return nil, fmt.Errorf("core: target index %d out of range (have %d indicators)", target, len(series))
	}
	sp := parent.Start("dataprep." + dataprep.StageClean)
	cleaned := dataprep.Clean(series)
	sp.End()
	if len(cleaned) == 0 || len(cleaned[0]) == 0 {
		return nil, errors.New("core: no complete records after cleaning")
	}
	// The paper normalizes the full series before splitting (Algorithm 1
	// line 2); we keep that order for fidelity.
	sp = parent.Start("dataprep." + dataprep.StageNormalize)
	p.norm = dataprep.FitNormalizer(cleaned)
	normed := p.norm.Transform(cleaned)
	sp.End()

	sp = parent.Start("dataprep." + dataprep.StageScreen)
	switch p.Cfg.Scenario {
	case Uni:
		p.selected = []int{target}
	default:
		p.selected = dataprep.ScreenTopHalf(normed, target)
	}
	sel := dataprep.Select(normed, p.selected)
	sp.SetAttr(obstrace.Int("selected", len(p.selected)))
	sp.End()
	// ScreenTopHalf puts the target first, and every expansion mode emits
	// the target's lag-0 copy as its first channel.
	if p.Cfg.Scenario == MulExp {
		sp = parent.Start("dataprep."+dataprep.StageExpand,
			obstrace.String("mode", p.Cfg.Expansion.String()))
		p.fitExpansion(sel)
		sel = p.expand(sel)
		sp.End()
	}
	p.freezePlan()
	return sel, nil
}

// fitExpansion fixes at fit time what the Mul-Exp expansion replays
// afterwards, so the channel layout stays fixed for serving: the
// ExpandWeighted factors, from each screened channel's |PCC| with the
// target (channel 0 of sel).
func (p *Predictor) fitExpansion(sel [][]float64) {
	p.weightedFactors = nil
	if p.Cfg.Expansion == ExpandWeighted {
		p.weightedFactors = dataprep.WeightedFactors(dataprep.Correlations(sel, 0), p.Cfg.ExpandFactor)
	}
}

// expand applies the configured Mul-Exp expansion to the screened,
// normalized channels (target first).
func (p *Predictor) expand(sel [][]float64) [][]float64 {
	switch p.Cfg.Expansion {
	case ExpandLagsDiff:
		return dataprep.ExpandWithDifference(sel, p.Cfg.ExpandFactor)
	case ExpandWeighted:
		return dataprep.ExpandWithFactors(sel, p.weightedFactors, p.Cfg.ExpandFactor)
	default:
		return dataprep.ExpandHorizontal(sel, p.Cfg.ExpandFactor)
	}
}

// Fit runs the full pipeline on series ([indicator][time]) predicting the
// indicator at index target.
func (p *Predictor) Fit(series [][]float64, target int) error {
	var fitSpan *obstrace.Span
	if p.Cfg.Tracer != nil {
		fitSpan = p.Cfg.Tracer.Start("predictor.fit",
			obstrace.String("scenario", p.Cfg.Scenario.String()),
			obstrace.Int("indicators", len(series)),
			obstrace.Int("target", target),
			obstrace.Int("window", p.Cfg.Window),
			obstrace.Int("horizon", p.Cfg.Horizon))
		defer fitSpan.End()
	}
	p.target = target
	prepared, err := p.prepare(series, target, fitSpan)
	if err != nil {
		return err
	}
	p.prepared = prepared

	windowSpan := fitSpan.Start("dataprep." + dataprep.StageWindow)
	ds, err := dataprep.BuildSupervised(prepared, dataprep.WindowConfig{
		Window:  p.Cfg.Window,
		Horizon: p.Cfg.Horizon,
		Target:  0,
	})
	windowSpan.End()
	if err != nil {
		return err
	}
	tr, va, te, err := train.Split(ds, p.Cfg.TrainFrac, p.Cfg.ValidFrac)
	if err != nil {
		return err
	}
	p.fitModel(len(prepared), tr, va, te, fitSpan)
	return nil
}

// fitModel trains a fresh model over channels input channels on tr,
// stopping early on va, and publishes it as generation 1 with te as its
// held-out split: the end of Fit and of FitFleet.
func (p *Predictor) fitModel(channels int, tr, va, te train.Dataset, span *obstrace.Span) {
	mcfg := p.Cfg.Model
	mcfg.InChannels = channels
	mcfg.Horizon = p.Cfg.Horizon
	m := NewModel(tensor.NewRNG(p.Cfg.Seed), mcfg)
	m.Profile(p.Cfg.Profiler)
	tc := p.trainConfig(p.Cfg.Epochs, p.Cfg.Seed)
	tc.Checkpoint = p.Cfg.Checkpoint
	tc.Guard = p.Cfg.Guard
	tc.Hooks = p.Cfg.Hooks
	tc.TraceParent = span
	tc.Tracer = p.Cfg.Tracer
	p.history = train.Fit(m, tr, va, tc)
	p.publish(&snapshot{model: m, gen: 1, test: te})
}

// trainConfig is the training run Fit and FineTune share: the
// predictor's batch size, learning rate and patience, MSE under Adam,
// shuffled, norm-clipped at 5 and restored to the best epoch.
func (p *Predictor) trainConfig(epochs int, seed uint64) train.Config {
	return train.Config{
		Epochs:      epochs,
		BatchSize:   p.Cfg.BatchSize,
		Optimizer:   opt.NewAdam(p.Cfg.LearningRate),
		Loss:        &nn.MSELoss{},
		Patience:    p.Cfg.Patience,
		Shuffle:     true,
		Seed:        seed + 1,
		RestoreBest: true,
		ClipNorm:    5,
	}
}

// TestMetrics evaluates the serving model on its held-out test segment at
// the normalized scale — the scale of the paper's Table II (values ×10⁻²).
func (p *Predictor) TestMetrics() (metrics.Report, error) {
	truth, preds, err := p.TestSeries()
	if err != nil {
		return metrics.Report{}, err
	}
	return metrics.Evaluate(truth, preds), nil
}

// TestSeries returns the held-out truth and the serving model's
// predictions (first-step, at the normalized scale) for plotting (Fig. 8).
// Model and split come from one snapshot, so a concurrent SwapModel
// cannot pair one generation's model with another's split.
func (p *Predictor) TestSeries() (truth, preds []float64, err error) {
	s := p.serving.Load()
	if s == nil {
		return nil, nil, errors.New("core: predictor not fitted")
	}
	if s.test.X == nil {
		return nil, nil, errors.New("core: no held-out test data (loaded predictors serve only)")
	}
	preds = train.Predict(s.model, s.test)
	truth = make([]float64, s.test.Len())
	h := p.Cfg.Horizon
	for i := range truth {
		truth[i] = s.test.Y.Data[i*h]
	}
	return truth, preds, nil
}

// Forecast predicts the next Horizon values of the target indicator from
// the end of the training series, returned on the ORIGINAL (denormalized)
// scale — Algorithm 1's output cpu_{m+1..m+k}.
func (p *Predictor) Forecast() ([]float64, error) {
	if p.norm == nil {
		return nil, errors.New("core: predictor not fitted")
	}
	if len(p.prepared) == 0 {
		return nil, errors.New("core: no retained series (loaded predictors use ForecastFrom)")
	}
	if len(p.prepared[0]) < p.Cfg.Window {
		return nil, errors.New("core: series shorter than window")
	}
	return p.forecastOne(lastWindow(p.prepared, p.Cfg.Window))
}

// ForecastFrom predicts the next Horizon values of the target indicator
// from fresh raw history (same indicator layout as the series passed to
// Fit). The stored normalizer and screening are applied — nothing is
// refit — so this is the online serving path: feed the latest monitoring
// window, get a denormalized forecast. It runs as a batch of one through
// the grad-free arena path (see batch.go), bitwise identical to
// Model.Forward(x, false).
func (p *Predictor) ForecastFrom(series [][]float64) ([]float64, error) {
	in, err := p.PrepareInput(series)
	if err != nil {
		return nil, err
	}
	return p.forecastOne(in)
}

// forecastOne serves one prepared window as a batch of one.
func (p *Predictor) forecastOne(in *PreparedInput) ([]float64, error) {
	res, err := p.ForecastBatch([]*PreparedInput{in})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// DenormalizeTarget maps values of the target indicator from the
// normalized scale back to the raw scale (e.g. test predictions from
// TestSeries).
func (p *Predictor) DenormalizeTarget(xs []float64) []float64 {
	if p.norm == nil {
		return append([]float64(nil), xs...)
	}
	return p.norm.Inverse(p.target, xs)
}

// History returns the training history (loss curves for Figs. 9–10).
func (p *Predictor) History() *train.History { return p.history }

// SelectedIndicators returns the indices (into the original series) chosen
// by the correlation screening, target first.
func (p *Predictor) SelectedIndicators() []int { return p.selected }

// Model returns the serving model (nil before Fit). Once hot-swapping is
// in play the pointer is only a snapshot: the serving model may change
// right after this returns. Every engine reads it: Clone it to change it.
func (p *Predictor) Model() *Model {
	if s := p.serving.Load(); s != nil {
		return s.model
	}
	return nil
}

// NormBounds returns the per-indicator min/max the normalizer was fitted
// with (copies; nil before Fit). Serving uses them to flag inputs that
// drift outside the training distribution.
func (p *Predictor) NormBounds() (min, max []float64) {
	if p.norm == nil {
		return nil, nil
	}
	return append([]float64(nil), p.norm.Min...), append([]float64(nil), p.norm.Max...)
}

// MinHistory returns the number of complete (clean) samples ForecastFrom
// needs to fill one input window, accounting for the samples horizontal
// expansion trims.
func (p *Predictor) MinHistory() int {
	if p.Cfg.Scenario == MulExp {
		return p.Cfg.Window + p.Cfg.ExpandFactor - 1
	}
	return p.Cfg.Window
}

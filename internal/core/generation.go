package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataprep"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/train"
)

// This file is the online-adaptation surface of the predictor: model
// generations and the atomic hot-swap. A fitted predictor serves
// generation 1; the adaptation supervisor (internal/adapt) fine-tunes a
// *clone* of the serving model off the request path (FineTune), shadow-
// scores it via a private Inferencer, and promotes it with SwapModel —
// one short critical section on the same inferMu that serializes
// ForecastBatch, so a forecast is computed entirely by one generation:
// torn reads are structurally impossible. The data pipeline (normalizer,
// screening, expansion layout) is frozen at the original Fit, so
// PreparedInputs built before a swap stay valid after it and the lock-
// free PrepareInput path never needs to know a swap happened.

// Generation returns the serving model's generation: 0 before Fit,
// 1 after Fit or load, +1 per SwapModel (including rollbacks — a
// rollback is a new generation serving old weights, so response
// attribution stays unambiguous).
func (p *Predictor) Generation() int64 {
	p.inferMu.Lock()
	defer p.inferMu.Unlock()
	return p.generation
}

// ModelGen returns the serving model pointer and its generation as one
// atomic snapshot — both read under a single inferMu hold, so a replica
// holder (ShardInferencer) can never observe a torn pair across a
// concurrent SwapModel.
func (p *Predictor) ModelGen() (*Model, int64) {
	p.inferMu.Lock()
	defer p.inferMu.Unlock()
	return p.model, p.generation
}

// Clone returns a deep copy of the model: same architecture, weights
// copied, fresh layer-RNG streams (seeded deterministically), no shared
// tensors. The clone is what fine-tuning mutates while the original
// keeps serving; it starts unfrozen (see nn.Freeze) whatever the
// original is, so the copied weights are what it infers from.
func (m *Model) Clone() *Model {
	c := NewModel(tensor.NewRNG(0), m.Cfg)
	src, dst := m.Params(), c.Params()
	for i, p := range src {
		dst[i].Value.CopyFrom(p.Value)
	}
	return c
}

// SwapModel atomically replaces the serving model with m and bumps the
// generation, returning the previous model and held-out split so the
// caller can roll back by swapping them in again. eval, when non-empty,
// becomes the new held-out split (what TestMetrics scores and any later
// swap's rollback captures). The swap holds inferMu — the same lock
// every ForecastBatch holds for its whole forward — so no in-flight
// forecast ever mixes generations; the hold is a pointer swap plus
// baking the new model's conv kernels (nn.Freeze).
func (p *Predictor) SwapModel(m *Model, eval train.Dataset) (prev *Model, prevEval train.Dataset, gen int64, err error) {
	if m == nil {
		return nil, train.Dataset{}, 0, errors.New("core: cannot swap in a nil model")
	}
	p.inferMu.Lock()
	defer p.inferMu.Unlock()
	if p.model == nil {
		return nil, train.Dataset{}, 0, errors.New("core: predictor not fitted")
	}
	if m.Cfg.InChannels != p.model.Cfg.InChannels || m.Cfg.Horizon != p.model.Cfg.Horizon {
		return nil, train.Dataset{}, 0, fmt.Errorf(
			"core: swap model shape (in=%d, horizon=%d) does not match serving (in=%d, horizon=%d)",
			m.Cfg.InChannels, m.Cfg.Horizon, p.model.Cfg.InChannels, p.model.Cfg.Horizon)
	}
	prev, prevEval = p.model, p.test
	p.model = m
	p.model.Profile(p.Cfg.Profiler)
	nn.Freeze(m) // published: its weights no longer move
	if eval.X != nil {
		p.test = eval
	}
	// The buffer pool survives the swap: the shape check above only
	// admits identical serving shapes, arena slots are shape-checked per
	// Get, and the kernels carry no per-model state — so the new
	// generation replays the warm arenas with zero re-recording (pinned
	// by TestInferBufPoolSurvivesSwap).
	p.generation++
	// Publish the new generation to the lock-free mirror LAST: shard
	// replicas polling genSeq keep serving the previous generation
	// through the whole hold and only pay the ModelGen lock (which waits
	// out the tail of this critical section) once the swap is done.
	p.genSeq.Store(p.generation)
	return prev, prevEval, p.generation, nil
}

// ForecastBatchGen is ForecastBatch plus attribution: the generation
// returned is the one that computed every forecast in the batch —
// reading it under the same inferMu hold as the forward is what makes
// the pairing tear-free.
func (p *Predictor) ForecastBatchGen(inputs []*PreparedInput) ([][]float64, int64, error) {
	p.inferMu.Lock()
	defer p.inferMu.Unlock()
	if p.model == nil {
		return nil, 0, errors.New("core: predictor not fitted")
	}
	res, err := p.run(p, p.model, inputs)
	if err != nil {
		return nil, 0, err
	}
	return res, p.generation, nil
}

// FineTuneConfig tunes a FineTune run. Zero values inherit the
// predictor's original training hyperparameters, except Epochs which
// defaults to a quarter of the original budget — adaptation warm-starts
// from serving weights and converges in far fewer epochs.
type FineTuneConfig struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
	Patience     int
	// Seed drives the shuffle and any layer RNG streams; same seed +
	// same windows ⇒ bitwise identical candidate.
	Seed uint64
	// TrainFrac/ValidFrac split the supervised windows chronologically;
	// the remainder is returned as the candidate's held-out split.
	TrainFrac, ValidFrac float64
	// Checkpoint, when its Dir is set, checkpoints the fine-tune
	// crash-safely (candidate artifacts; prune with train.PruneCheckpoints).
	Checkpoint train.CheckpointConfig
	// Guard defaults to enabled: a diverging fine-tune must roll back
	// to its best epoch, never hand back NaN weights.
	Guard train.GuardConfig
	// Hooks observe the fine-tune (per-epoch metrics/logging).
	Hooks []train.Hook
}

// FineTune trains a candidate model on fresh raw history (same
// indicator layout as Fit) without touching the serving model: the
// stored pipeline prepares the series, the serving model is cloned, and
// the clone is fine-tuned from its current weights. Returns the
// candidate, its held-out split (pass to SwapModel on promotion), and
// the training history. The serving path is only blocked for the
// instant it takes to read the current model pointer.
func (p *Predictor) FineTune(series [][]float64, cfg FineTuneConfig) (*Model, train.Dataset, *train.History, error) {
	if cfg.Epochs <= 0 {
		if cfg.Epochs = p.Cfg.Epochs / 4; cfg.Epochs < 1 {
			cfg.Epochs = 1
		}
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = p.Cfg.BatchSize
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = p.Cfg.LearningRate
	}
	if cfg.Patience <= 0 {
		cfg.Patience = p.Cfg.Patience
	}
	if cfg.TrainFrac == 0 {
		cfg.TrainFrac = p.Cfg.TrainFrac
	}
	if cfg.ValidFrac == 0 {
		cfg.ValidFrac = p.Cfg.ValidFrac
	}
	sel, _, err := p.prepareServe(series)
	if err != nil {
		return nil, train.Dataset{}, nil, err
	}
	ds, err := dataprep.BuildSupervised(sel, dataprep.WindowConfig{
		Window:  p.Cfg.Window,
		Horizon: p.Cfg.Horizon,
		Target:  0, // the pipeline puts the target channel first
	})
	if err != nil {
		return nil, train.Dataset{}, nil, err
	}
	tr, va, te, err := train.Split(ds, cfg.TrainFrac, cfg.ValidFrac)
	if err != nil {
		return nil, train.Dataset{}, nil, err
	}

	p.inferMu.Lock()
	serving := p.model
	p.inferMu.Unlock()
	if serving == nil {
		return nil, train.Dataset{}, nil, errors.New("core: predictor not fitted")
	}
	candidate := serving.Clone()
	hist := train.FineTune(candidate, tr, va, train.Config{
		Epochs:      cfg.Epochs,
		BatchSize:   cfg.BatchSize,
		Optimizer:   opt.NewAdam(cfg.LearningRate),
		Loss:        &nn.MSELoss{},
		Patience:    cfg.Patience,
		Shuffle:     true,
		Seed:        cfg.Seed + 1,
		RestoreBest: true,
		ClipNorm:    5,
		Checkpoint:  cfg.Checkpoint,
		Guard:       cfg.Guard,
		Hooks:       cfg.Hooks,
	})
	for _, prm := range candidate.Params() {
		for _, v := range prm.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, train.Dataset{}, hist, errors.New("core: fine-tuned candidate has non-finite weights")
			}
		}
	}
	return candidate, te, hist, nil
}

// Inferencer runs forecasts against a specific model through the
// predictor's frozen data pipeline, entirely outside the serving lock —
// the shadow-evaluation path: the supervisor scores a candidate on
// mirrored live inputs without ever touching ForecastBatch's arenas or
// blocking a request. Not synchronized; use from one goroutine.
type Inferencer struct {
	batchForward
	p *Predictor
	m *Model
}

// NewInferencer returns an Inferencer serving m through p's pipeline.
// m is frozen (see nn.Freeze): training it further unfreezes it again.
func (p *Predictor) NewInferencer(m *Model) *Inferencer {
	nn.Freeze(m)
	return &Inferencer{p: p, m: m}
}

// Forecast runs one prepared window through the inferencer's model and
// returns the denormalized Horizon-step forecast — bitwise identical to
// what ForecastBatch would return were this model serving.
func (inf *Inferencer) Forecast(in *PreparedInput) ([]float64, error) {
	res, err := inf.run(inf.p, inf.m, []*PreparedInput{in})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

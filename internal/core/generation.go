package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataprep"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// This file is the predictor's serving state: the one published snapshot
// every engine serves, the generation that numbers it, and the hot swap.
// Fit, FitFleet and LoadPredictor publish generation 1, SwapModel the
// next one. The adaptation supervisor (internal/adapt) fine-tunes a
// *clone* of the serving model off the request path (FineTune),
// shadow-scores it on an engine pinned to it (NewCandidateInferencer),
// and promotes it with SwapModel. A snapshot never changes and its model
// is prepared for sharing before it is stored, so an engine that loads it
// once per batch computes the whole batch with one generation and takes
// no lock: torn reads are structurally impossible. The data pipeline
// (normalizer, screening, expansion layout) is frozen at the original
// Fit, so PreparedInputs built before a swap stay valid after it.

// snapshot is one published serving state: a model that is only read
// from now on, its generation, and the held-out split TestMetrics scores
// it on.
type snapshot struct {
	model *Model
	gen   int64
	test  train.Dataset
	// epoch is unique to the snapshot in the process (see stream.go).
	epoch uint64
}

// prepareServing readies m to be read by many forwards at once: the
// profiler wraps its stages, nn.Freeze bakes its kernels, and its blocks
// plan the serving window — what an arena forward would otherwise write.
// Preparing a prepared model writes nothing, so a model that still serves
// can be published again (a rollback).
func (p *Predictor) prepareServing(m *Model) {
	m.Profile(p.Cfg.Profiler)
	nn.Freeze(m)
	nn.PlanChain(m.stages, p.Cfg.Window)
}

// prepareSnapshot prepares s's model for serving and numbers s.
func (p *Predictor) prepareSnapshot(s *snapshot) *snapshot {
	p.prepareServing(s.model)
	s.epoch = snapshotEpoch.Add(1)
	return s
}

// publish prepares s and makes it the snapshot every engine serves from
// its next batch on.
func (p *Predictor) publish(s *snapshot) {
	p.serving.Store(p.prepareSnapshot(s))
}

// Generation returns the serving model's generation: 0 before Fit,
// 1 after Fit or load, +1 per SwapModel (including rollbacks — a
// rollback is a new generation serving old weights, so response
// attribution stays unambiguous).
func (p *Predictor) Generation() int64 {
	if s := p.serving.Load(); s != nil {
		return s.gen
	}
	return 0
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

// SwapModel publishes m as the next generation and returns the previous
// model and held-out split, so the caller can roll back by swapping them
// in again. eval, when non-empty, becomes the new held-out split (what
// TestMetrics scores and any later swap's rollback captures). A batch
// that loaded the previous snapshot finishes on it; every engine's next
// batch serves m. Swaps serialize on a mutex that no read path takes.
func (p *Predictor) SwapModel(m *Model, eval train.Dataset) (prev *Model, prevEval train.Dataset, gen int64, err error) {
	if m == nil {
		return nil, train.Dataset{}, 0, errors.New("core: cannot swap in a nil model")
	}
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	cur := p.serving.Load()
	if cur == nil {
		return nil, train.Dataset{}, 0, errors.New("core: predictor not fitted")
	}
	if m.Cfg.InChannels != cur.model.Cfg.InChannels || m.Cfg.Horizon != cur.model.Cfg.Horizon {
		return nil, train.Dataset{}, 0, fmt.Errorf(
			"core: swap model shape (in=%d, horizon=%d) does not match serving (in=%d, horizon=%d)",
			m.Cfg.InChannels, m.Cfg.Horizon, cur.model.Cfg.InChannels, cur.model.Cfg.Horizon)
	}
	next := &snapshot{model: m, gen: cur.gen + 1, test: cur.test}
	if eval.X != nil {
		next.test = eval
	}
	p.publish(next)
	return cur.model, cur.test, next.gen, nil
}

// FineTuneConfig tunes a FineTune run. Everything else — batch size,
// learning rate, patience, the train/validation split — is the
// predictor's own, and a fine-tune always runs with the divergence
// guards on: it must roll back to its best epoch, never hand back NaN
// weights.
type FineTuneConfig struct {
	// Epochs defaults to a quarter of the original budget: adaptation
	// warm-starts from serving weights and converges in far fewer epochs.
	Epochs int
	// Seed drives the shuffle and any layer RNG streams; same seed +
	// same windows ⇒ bitwise identical candidate.
	Seed uint64
	// Checkpoint, when its Dir is set, checkpoints the fine-tune
	// crash-safely (candidate artifacts; prune with train.PruneCheckpoints).
	Checkpoint train.CheckpointConfig
}

// FineTune trains a candidate model on fresh raw history (same
// indicator layout as Fit) without touching the serving model: the
// stored pipeline prepares the series, the serving model is cloned, and
// the clone is fine-tuned from its current weights. Returns the
// candidate, its held-out split (pass to SwapModel on promotion), and
// the training history. Serving is never blocked.
func (p *Predictor) FineTune(series [][]float64, cfg FineTuneConfig) (*Model, train.Dataset, *train.History, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = max(p.Cfg.Epochs/4, 1)
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
	tr, va, te, err := train.Split(ds, p.Cfg.TrainFrac, p.Cfg.ValidFrac)
	if err != nil {
		return nil, train.Dataset{}, nil, err
	}

	serving := p.Model()
	if serving == nil {
		return nil, train.Dataset{}, nil, errors.New("core: predictor not fitted")
	}
	candidate := serving.Clone()
	tc := p.trainConfig(cfg.Epochs, cfg.Seed)
	tc.Checkpoint = cfg.Checkpoint
	tc.Guard = train.GuardConfig{Enabled: true}
	hist := train.FineTune(candidate, tr, va, tc)
	for _, prm := range candidate.Params() {
		for _, v := range prm.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, train.Dataset{}, hist, errors.New("core: fine-tuned candidate has non-finite weights")
			}
		}
	}
	return candidate, te, hist, nil
}

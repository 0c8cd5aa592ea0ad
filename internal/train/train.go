// Package train provides the supervised-learning harness used by every
// deep model in the experiments: mini-batch training with Adam, the
// paper's chronological 6:2:2 train/validation/test split, early stopping
// with patience (the Keras EarlyStopping callback the paper configures
// with patience=10), and per-epoch loss history for the convergence
// figures (Figs. 9–10).
package train

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/obs"
	obstrace "repro/internal/obs/trace"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// Dataset is a supervised dataset: X has the sample dimension first
// ([N, features] or [N, channels, time]) and Y is [N, outputs].
type Dataset struct {
	X *tensor.Tensor
	Y *tensor.Tensor
}

// Len returns the number of samples.
func (d Dataset) Len() int {
	if d.X == nil {
		return 0
	}
	return d.X.Dim(0)
}

// Subset returns the sample range [lo, hi) as a new dataset (copied).
func (d Dataset) Subset(lo, hi int) Dataset {
	return Dataset{X: sliceSamples(d.X, lo, hi), Y: sliceSamples(d.Y, lo, hi)}
}

// Gather returns the samples at the given indices as a new dataset.
func (d Dataset) Gather(idx []int) Dataset {
	return Dataset{X: gatherSamples(d.X, idx), Y: gatherSamples(d.Y, idx)}
}

// GatherInto is Gather with buffer reuse: dst's tensors are overwritten
// when their shapes already match and reallocated otherwise. The (possibly
// updated) dataset is returned; d is never aliased.
func (d Dataset) GatherInto(idx []int, dst Dataset) Dataset {
	dst.X = gatherSamplesInto(d.X, idx, dst.X)
	dst.Y = gatherSamplesInto(d.Y, idx, dst.Y)
	return dst
}

// SubsetInto is Subset with the same buffer-reuse contract as GatherInto.
func (d Dataset) SubsetInto(lo, hi int, dst Dataset) Dataset {
	dst.X = sliceSamplesInto(d.X, lo, hi, dst.X)
	dst.Y = sliceSamplesInto(d.Y, lo, hi, dst.Y)
	return dst
}

func sampleSize(t *tensor.Tensor) int {
	s := 1
	for _, dim := range t.Shape()[1:] {
		s *= dim
	}
	return s
}

func sliceSamples(t *tensor.Tensor, lo, hi int) *tensor.Tensor {
	per := sampleSize(t)
	shape := t.Shape()
	shape[0] = hi - lo
	out := tensor.New(shape...)
	copy(out.Data, t.Data[lo*per:hi*per])
	return out
}

func gatherSamples(t *tensor.Tensor, idx []int) *tensor.Tensor {
	return gatherSamplesInto(t, idx, nil)
}

func gatherSamplesInto(t *tensor.Tensor, idx []int, dst *tensor.Tensor) *tensor.Tensor {
	per := sampleSize(t)
	shape := t.Shape()
	shape[0] = len(idx)
	dst = ensureShape(dst, shape)
	for i, j := range idx {
		copy(dst.Data[i*per:(i+1)*per], t.Data[j*per:(j+1)*per])
	}
	return dst
}

func sliceSamplesInto(t *tensor.Tensor, lo, hi int, dst *tensor.Tensor) *tensor.Tensor {
	per := sampleSize(t)
	shape := t.Shape()
	shape[0] = hi - lo
	dst = ensureShape(dst, shape)
	copy(dst.Data, t.Data[lo*per:hi*per])
	return dst
}

// ensureShape returns dst when it already has the wanted shape, or a fresh
// tensor otherwise.
func ensureShape(dst *tensor.Tensor, shape []int) *tensor.Tensor {
	if dst != nil && dst.Dims() == len(shape) {
		ok := true
		for i, s := range shape {
			if dst.Dim(i) != s {
				ok = false
				break
			}
		}
		if ok {
			return dst
		}
	}
	return tensor.New(shape...)
}

// Split divides a dataset chronologically into train/validation/test
// fractions (the paper uses 6:2:2). Fractions must be positive and sum to
// at most 1; the test set receives the remainder.
func Split(d Dataset, trainFrac, validFrac float64) (tr, va, te Dataset, err error) {
	if trainFrac <= 0 || validFrac <= 0 || trainFrac+validFrac >= 1 {
		return tr, va, te, fmt.Errorf("train: invalid split fractions %g/%g", trainFrac, validFrac)
	}
	n := d.Len()
	nTrain := int(float64(n) * trainFrac)
	nValid := int(float64(n) * validFrac)
	if nTrain == 0 || nValid == 0 || nTrain+nValid >= n {
		return tr, va, te, errors.New("train: dataset too small to split")
	}
	return d.Subset(0, nTrain), d.Subset(nTrain, nTrain+nValid), d.Subset(nTrain+nValid, n), nil
}

// History records per-epoch losses; it backs the convergence figures.
type History struct {
	TrainLoss []float64
	ValidLoss []float64
	BestEpoch int // epoch index of the best validation loss
	Stopped   bool
}

// Config controls a training run.
type Config struct {
	Epochs    int
	BatchSize int
	Optimizer opt.Optimizer
	Loss      nn.Loss
	// Patience is the early-stopping patience in epochs; 0 disables early
	// stopping. The paper uses 10.
	Patience int
	// ClipNorm, when positive, clips the global gradient norm each step.
	ClipNorm float64
	// Shuffle controls whether training batches are re-shuffled per epoch.
	Shuffle bool
	// Seed seeds the shuffling RNG.
	Seed uint64
	// RestoreBest restores the parameter values from the best validation
	// epoch after training (like Keras restore_best_weights).
	RestoreBest bool
	// Checkpoint enables periodic crash-safe checkpoints (and resume)
	// when its Dir is set. A run interrupted at any point and resumed
	// from its newest checkpoint produces a loss history and final
	// weights bitwise identical to the uninterrupted run.
	Checkpoint CheckpointConfig
	// Guard enables divergence guards: batches with non-finite (or
	// explosive) loss are skipped instead of stepping the optimizer, and
	// a non-finite validation loss rolls the weights back to the best
	// epoch. With Guard zero-valued, Fit behaves exactly as before.
	Guard GuardConfig
	// Hooks observe the run (per-batch, per-epoch, early-stop events).
	// They fire in slice order, after the built-in History hook, and
	// always before best-weight restoration.
	Hooks []Hook
	// Tracer records a hierarchical "train.fit" → "epoch" → "batch" span
	// tree for the run. Nil (or a disabled tracer) costs only nil checks.
	Tracer *obstrace.Tracer
	// TraceParent, when set, nests the run's spans under an existing span
	// (e.g. a predictor.fit trace) instead of starting a new root.
	TraceParent *obstrace.Span
}

func (c *Config) fillDefaults() {
	if c.Epochs == 0 {
		c.Epochs = 50
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.Optimizer == nil {
		c.Optimizer = opt.NewAdam(1e-3)
	}
	if c.Loss == nil {
		c.Loss = &nn.MSELoss{}
	}
}

// FineTune continues training model from its current weights — the
// warm-start entrypoint for online adaptation: the supervisor clones
// the serving model and fine-tunes the clone on recently ingested
// windows. Fit never re-initializes weights, so this is Fit by another
// name; the separate entrypoint pins warm-starting as a supported
// contract and marks the intended configuration (few epochs, Guard
// enabled so a diverging fine-tune restores the best epoch, Checkpoint
// pointed at a candidate dir so a crash mid-retrain is recoverable).
func FineTune(model nn.Layer, tr, va Dataset, cfg Config) *History {
	return Fit(model, tr, va, cfg)
}

// Fit trains the model on tr, monitoring va for early stopping, and
// returns the loss history. The returned History is itself the first
// training Hook; cfg.Hooks fire after it, in order, so a user hook
// observing OnEpochEnd sees History already extended for that epoch, and
// OnEarlyStop fires before any best-weight restoration.
func Fit(model nn.Layer, tr, va Dataset, cfg Config) *History {
	cfg.fillDefaults()
	fitSpan := startFitSpan(cfg, tr, va)
	defer fitSpan.End()
	rng := tensor.NewRNG(cfg.Seed)
	hist := &History{BestEpoch: -1}
	hooks := make([]Hook, 0, 1+len(cfg.Hooks))
	hooks = append(hooks, hist)
	hooks = append(hooks, cfg.Hooks...)
	// The pre-clip gradient norm costs a full pass over the parameters,
	// so it is computed only when someone beyond History is listening.
	wantGradNorm := len(cfg.Hooks) > 0
	best := math.Inf(1)
	var bestParams []*tensor.Tensor
	wait := 0
	// The guard's rollback needs best weights even when the caller did
	// not ask for final restoration.
	keepBest := cfg.RestoreBest || cfg.Guard.Enabled

	ckpt := cfg.Checkpoint
	ckpt.fillDefaults()
	startEpoch := 0
	if ckpt.enabled() && ckpt.Resume {
		dump, err := latestLoadableCheckpoint(ckpt.Dir)
		switch {
		case err != nil:
			obs.Logger("train").Warn("checkpoint resume failed; starting fresh",
				"dir", ckpt.Dir, "err", err)
		case dump != nil:
			b, w, bp, rerr := restoreCheckpoint(dump, model, cfg.Optimizer, rng, hist)
			if rerr != nil {
				obs.Logger("train").Error("checkpoint restore failed; training from current state",
					"dir", ckpt.Dir, "err", rerr)
				break
			}
			best, wait, startEpoch = b, w, dump.Epoch
			if bp != nil {
				bestParams = bp
			}
			obs.Logger("train").Info("resumed from checkpoint",
				"dir", ckpt.Dir, "epoch", dump.Epoch, "stopped", dump.Stopped)
			for _, h := range hooks {
				if ro, ok := h.(ResumeObserver); ok {
					ro.OnResume(ResumeInfo{Epoch: startEpoch, Stopped: dump.Stopped})
				}
			}
			if dump.Stopped || startEpoch >= cfg.Epochs {
				// The checkpointed run had already finished (early stop
				// or full epoch budget); don't train past it.
				if cfg.RestoreBest && bestParams != nil {
					restore(model, bestParams)
				}
				return hist
			}
		}
	}

	n := tr.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Per-batch gather buffers and validation scratch are reused across
	// the whole run; only the last (short) batch forces a reallocation.
	var batchScratch, evalScratch Dataset

	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		epochSpan := fitSpan.Start("epoch", obstrace.Int("epoch", epoch))
		if cfg.Shuffle {
			rng.PermInto(order)
		}
		epochStart := time.Now()
		epochLoss := 0.0
		normSum := 0.0
		batches := 0
		applied := 0
		skippedBatches := 0
		for lo := 0; lo < n; lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > n {
				hi = n
			}
			batchSpan := epochSpan.Start("batch", obstrace.Int("batch", batches))
			batchScratch = tr.GatherInto(order[lo:hi], batchScratch)
			batch := batchScratch
			nn.ZeroGrad(model)
			pred := model.Forward(batch.X, true)
			l := cfg.Loss.Forward(pred, batch.Y)
			l = fault.NaN("train.batch.loss", l)
			// Divergence guard: a non-finite (or explosive) batch loss
			// skips backward+step entirely — the weights, the optimizer
			// slots, and (critically for resume determinism) every RNG
			// stream are left exactly as if the batch had not happened.
			skipped := cfg.Guard.badLoss(l)
			gnorm := math.NaN()
			if !skipped {
				model.Backward(cfg.Loss.Backward())
				switch {
				case cfg.ClipNorm > 0:
					gnorm = opt.ClipGradNorm(model.Params(), cfg.ClipNorm)
				case wantGradNorm:
					gnorm = gradNorm(model.Params())
				}
				if cfg.ClipNorm > 0 && cfg.Guard.badNorm(gnorm) {
					// Finite loss but NaN/Inf gradients: still divergent.
					skipped = true
				}
			}
			if skipped {
				skippedBatches++
			} else {
				cfg.Optimizer.Step(model.Params())
				epochLoss += l
				applied++
			}
			if !math.IsNaN(gnorm) && !skipped {
				normSum += gnorm
			}
			batchSpan.SetAttr(obstrace.Float("loss", l), obstrace.Bool("skipped", skipped))
			batchSpan.End()
			for _, h := range hooks {
				h.OnBatchEnd(BatchStats{
					Epoch: epoch, Batch: batches, Size: hi - lo, Loss: l, GradNorm: gnorm,
					Skipped: skipped,
				})
			}
			batches++
		}

		validSpan := epochSpan.Start("validate")
		vl, evalScratchOut := evaluateLossInto(model, va, cfg.Loss, evalScratch)
		evalScratch = evalScratchOut
		validSpan.End()
		// NaN compares false, so a NaN validation loss can never become
		// the best — and NaN weights can never be snapshotted as "best".
		improved := vl < best
		if improved {
			best = vl
			wait = 0
			if keepBest {
				bestParams = snapshotInto(model, bestParams)
			}
		}
		rolledBack := false
		if !improved && cfg.Guard.Enabled && (math.IsNaN(vl) || math.IsInf(vl, 0)) && bestParams != nil {
			// The model itself has diverged (validation consumes no RNG,
			// so this is the weights, not bad luck): roll back to the
			// best weights and let training continue from there.
			restore(model, bestParams)
			rolledBack = true
		}
		stats := EpochStats{
			Epoch:          epoch,
			TrainLoss:      epochLoss / float64(batches),
			ValidLoss:      vl,
			GradNorm:       math.NaN(),
			LR:             cfg.Optimizer.LR(),
			Duration:       time.Since(epochStart),
			Improved:       improved,
			BestEpoch:      hist.BestEpoch,
			SkippedBatches: skippedBatches,
			RolledBack:     rolledBack,
		}
		if skippedBatches > 0 {
			// Skipped batches contribute no loss; average the applied
			// ones (NaN when the whole epoch was skipped).
			stats.TrainLoss = epochLoss / float64(applied)
		}
		if improved {
			stats.BestEpoch = epoch
		}
		stats.BestValidLoss = best
		if wantGradNorm || cfg.ClipNorm > 0 {
			// Like TrainLoss: the mean over the batches that contributed.
			stats.GradNorm = normSum / float64(applied)
		}
		for _, h := range hooks {
			h.OnEpochEnd(stats)
		}
		epochSpan.SetAttr(
			obstrace.Float("train_loss", stats.TrainLoss),
			obstrace.Float("valid_loss", vl),
			obstrace.Bool("improved", improved),
		)
		epochSpan.End()
		stopping := false
		if !improved && cfg.Patience > 0 {
			wait++
			if wait >= cfg.Patience {
				stopping = true
				stop := StopInfo{
					Epoch: epoch, BestEpoch: hist.BestEpoch,
					BestValidLoss: best, Patience: cfg.Patience,
				}
				for _, h := range hooks {
					h.OnEarlyStop(stop)
				}
			}
		}
		if ckpt.enabled() && (stopping || epoch == cfg.Epochs-1 || (epoch+1)%ckpt.Every == 0) {
			dump, err := captureCheckpoint(model, cfg.Optimizer, rng, hist,
				best, wait, bestParams, epoch+1, stopping)
			if err == nil {
				err = saveCheckpoint(ckpt.Dir, ckpt.Keep, dump)
			}
			if err != nil {
				// Checkpointing is best-effort: a failed write must never
				// kill a training run that is otherwise healthy.
				obs.Logger("train").Warn("checkpoint write failed; training continues",
					"dir", ckpt.Dir, "epoch", epoch, "err", err)
			}
		}
		if stopping {
			break
		}
	}
	if cfg.RestoreBest && bestParams != nil {
		restore(model, bestParams)
	}
	return hist
}

// startFitSpan opens the run's "train.fit" span — nested under
// cfg.TraceParent when set, a new root on cfg.Tracer otherwise, nil
// (a no-op span) when tracing is off.
func startFitSpan(cfg Config, tr, va Dataset) *obstrace.Span {
	attrs := []obstrace.Attr{
		obstrace.Int("train_samples", tr.Len()),
		obstrace.Int("valid_samples", va.Len()),
		obstrace.Int("batch_size", cfg.BatchSize),
		obstrace.Int("epochs", cfg.Epochs),
	}
	if cfg.TraceParent != nil {
		return cfg.TraceParent.Start("train.fit", attrs...)
	}
	if cfg.Tracer != nil {
		return cfg.Tracer.Start("train.fit", attrs...)
	}
	return nil
}

// gradNorm is the global L2 norm of all parameter gradients (the value
// ClipGradNorm computes, without the clipping).
func gradNorm(params []*nn.Param) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	return math.Sqrt(total)
}

// snapshotInto copies the current parameter values into dst, cloning only
// on the first call (later snapshots reuse the same buffers).
func snapshotInto(model nn.Layer, dst []*tensor.Tensor) []*tensor.Tensor {
	ps := model.Params()
	if dst == nil {
		dst = make([]*tensor.Tensor, len(ps))
	}
	for i, p := range ps {
		if dst[i] == nil {
			dst[i] = p.Value.Clone()
		} else {
			dst[i].CopyFrom(p.Value)
		}
	}
	return dst
}

func restore(model nn.Layer, vals []*tensor.Tensor) {
	for i, p := range model.Params() {
		p.Value.CopyFrom(vals[i])
	}
	nn.Unfreeze(model)
}

// EvaluateLoss computes the mean loss of the model over a dataset in
// evaluation mode (dropout off), batching to bound memory.
func EvaluateLoss(model nn.Layer, d Dataset, loss nn.Loss) float64 {
	l, _ := evaluateLossInto(model, d, loss, Dataset{})
	return l
}

// evaluateLossInto is EvaluateLoss with a reusable batch scratch, so a
// caller evaluating every epoch (Fit) pays for the buffers once.
func evaluateLossInto(model nn.Layer, d Dataset, loss nn.Loss, scratch Dataset) (float64, Dataset) {
	if d.Len() == 0 {
		return math.NaN(), scratch
	}
	const batch = 256
	total := 0.0
	count := 0
	for lo := 0; lo < d.Len(); lo += batch {
		hi := lo + batch
		if hi > d.Len() {
			hi = d.Len()
		}
		scratch = d.SubsetInto(lo, hi, scratch)
		pred := model.Forward(scratch.X, false)
		total += loss.Forward(pred, scratch.Y) * float64(hi-lo)
		count += hi - lo
	}
	return total / float64(count), scratch
}

// Predict runs the model over a dataset in evaluation mode and returns the
// flat predictions (first output per sample when the model emits several).
func Predict(model nn.Layer, d Dataset) []float64 {
	if d.Len() == 0 {
		return nil
	}
	out := make([]float64, 0, d.Len())
	const batch = 256
	for lo := 0; lo < d.Len(); lo += batch {
		hi := lo + batch
		if hi > d.Len() {
			hi = d.Len()
		}
		sub := d.Subset(lo, hi)
		pred := model.Forward(sub.X, false)
		per := sampleSize(pred)
		for i := 0; i < pred.Dim(0); i++ {
			out = append(out, pred.Data[i*per])
		}
	}
	return out
}

// PredictAll is Predict but returns every output per sample ([N][K]).
func PredictAll(model nn.Layer, d Dataset) [][]float64 {
	if d.Len() == 0 {
		return nil
	}
	var out [][]float64
	const batch = 256
	for lo := 0; lo < d.Len(); lo += batch {
		hi := lo + batch
		if hi > d.Len() {
			hi = d.Len()
		}
		sub := d.Subset(lo, hi)
		pred := model.Forward(sub.X, false)
		per := sampleSize(pred)
		for i := 0; i < pred.Dim(0); i++ {
			row := make([]float64, per)
			copy(row, pred.Data[i*per:(i+1)*per])
			out = append(out, row)
		}
	}
	return out
}

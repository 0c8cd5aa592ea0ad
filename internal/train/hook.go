package train

import (
	"log/slog"
	"math"
	"time"

	"repro/internal/obs"
)

// BatchStats describes one completed optimizer step.
type BatchStats struct {
	Epoch int // 0-based epoch index
	Batch int // 0-based batch index within the epoch
	Size  int // samples in the batch
	Loss  float64
	// GradNorm is the pre-clip global L2 gradient norm. It is computed
	// only when the run has user hooks (History alone never pays for it);
	// otherwise it is NaN.
	GradNorm float64
	// Skipped reports that the divergence guard rejected this batch (its
	// loss or gradient norm was non-finite or explosive) and the
	// optimizer did not step.
	Skipped bool
}

// EpochStats describes one completed epoch, delivered after the
// validation pass and best-epoch bookkeeping but before any weight
// restoration, so hooks observe the model exactly as it finished the
// epoch.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	ValidLoss float64
	// GradNorm is the mean pre-clip global gradient norm over the epoch's
	// applied batches — skipped ones have none (NaN when not computed, see
	// BatchStats.GradNorm, or when every batch was skipped).
	GradNorm float64
	LR       float64
	Duration time.Duration
	// Improved reports whether this epoch set a new best validation loss.
	Improved bool
	// BestEpoch and BestValidLoss track the running best (BestEpoch is
	// -1 until a finite validation loss is seen).
	BestEpoch     int
	BestValidLoss float64
	// SkippedBatches counts batches the divergence guard rejected this
	// epoch; RolledBack reports that a non-finite validation loss made
	// the guard restore the best weights before the next epoch.
	SkippedBatches int
	RolledBack     bool
}

// StopInfo describes an early stop, delivered before best-weight
// restoration — hooks see the best epoch already recorded but the model
// still carrying its last-epoch weights.
type StopInfo struct {
	Epoch         int // epoch at which training stopped (0-based)
	BestEpoch     int
	BestValidLoss float64
	Patience      int
}

// Hook observes a training run. Fit invokes hooks in registration order;
// the History returned by Fit is itself the first hook, so user hooks
// always see History already updated for the current epoch.
type Hook interface {
	OnBatchEnd(BatchStats)
	OnEpochEnd(EpochStats)
	OnEarlyStop(StopInfo)
}

// ResumeInfo describes a successful checkpoint resume, delivered before
// the first resumed epoch runs.
type ResumeInfo struct {
	Epoch   int  // first epoch the resumed run will execute
	Stopped bool // the checkpointed run had already early-stopped
}

// ResumeObserver is implemented by hooks that want to hear about
// checkpoint resumes (an optional extension of Hook).
type ResumeObserver interface {
	OnResume(ResumeInfo)
}

// FuncHook adapts optional funcs into a Hook, so callers implement only
// the events they care about.
type FuncHook struct {
	BatchEnd  func(BatchStats)
	EpochEnd  func(EpochStats)
	EarlyStop func(StopInfo)
	Resume    func(ResumeInfo)
}

// OnBatchEnd implements Hook.
func (f FuncHook) OnBatchEnd(s BatchStats) {
	if f.BatchEnd != nil {
		f.BatchEnd(s)
	}
}

// OnEpochEnd implements Hook.
func (f FuncHook) OnEpochEnd(s EpochStats) {
	if f.EpochEnd != nil {
		f.EpochEnd(s)
	}
}

// OnEarlyStop implements Hook.
func (f FuncHook) OnEarlyStop(s StopInfo) {
	if f.EarlyStop != nil {
		f.EarlyStop(s)
	}
}

// OnResume implements ResumeObserver.
func (f FuncHook) OnResume(s ResumeInfo) {
	if f.Resume != nil {
		f.Resume(s)
	}
}

// OnBatchEnd implements Hook; History ignores batch events.
func (h *History) OnBatchEnd(BatchStats) {}

// OnEpochEnd implements Hook: History is the built-in hook that records
// the loss curves backing the convergence figures.
func (h *History) OnEpochEnd(s EpochStats) {
	h.TrainLoss = append(h.TrainLoss, s.TrainLoss)
	h.ValidLoss = append(h.ValidLoss, s.ValidLoss)
	h.BestEpoch = s.BestEpoch
}

// OnEarlyStop implements Hook.
func (h *History) OnEarlyStop(StopInfo) { h.Stopped = true }

// NewLogHook returns a hook that logs per-epoch progress and early stops
// through the given structured logger (obs.Logger("train") when nil).
func NewLogHook(l *slog.Logger) Hook {
	if l == nil {
		l = obs.Logger("train")
	}
	return FuncHook{
		EpochEnd: func(s EpochStats) {
			l.Info("epoch",
				"epoch", s.Epoch,
				"train_loss", s.TrainLoss,
				"valid_loss", s.ValidLoss,
				"grad_norm", s.GradNorm,
				"lr", s.LR,
				"dur", s.Duration.Round(time.Millisecond),
				"best_epoch", s.BestEpoch,
			)
			if s.SkippedBatches > 0 || s.RolledBack {
				l.Warn("divergence guard intervened",
					"epoch", s.Epoch,
					"skipped_batches", s.SkippedBatches,
					"rolled_back", s.RolledBack,
				)
			}
		},
		EarlyStop: func(s StopInfo) {
			l.Info("early stop",
				"epoch", s.Epoch,
				"best_epoch", s.BestEpoch,
				"best_valid_loss", s.BestValidLoss,
				"patience", s.Patience,
			)
		},
	}
}

// NewMetricsHook returns a hook that streams training progress into a
// metrics registry (obs.Default() when nil):
//
//	rptcn_train_epochs_total        counter
//	rptcn_train_early_stops_total   counter
//	rptcn_train_epoch_seconds       histogram
//	rptcn_train_loss                gauge (last epoch train loss)
//	rptcn_train_valid_loss          gauge (last epoch validation loss)
//	rptcn_train_grad_norm           gauge (mean pre-clip grad norm)
//	rptcn_train_skipped_batches_total  counter (divergence-guard skips)
//	rptcn_train_rollbacks_total        counter (best-weight rollbacks)
//
// The families are registered eagerly so they appear on /metrics (at
// zero) even before the first epoch completes.
func NewMetricsHook(r *obs.Registry) Hook {
	if r == nil {
		r = obs.Default()
	}
	epochs := r.Counter("rptcn_train_epochs_total", "Completed training epochs.")
	stops := r.Counter("rptcn_train_early_stops_total", "Training runs ended by early stopping.")
	epochTime := r.Histogram("rptcn_train_epoch_seconds", "Wall time per training epoch.",
		obs.ExponentialBuckets(0.01, 2, 14))
	trainLoss := r.Gauge("rptcn_train_loss", "Training loss of the most recent epoch.")
	validLoss := r.Gauge("rptcn_train_valid_loss", "Validation loss of the most recent epoch.")
	gradNorm := r.Gauge("rptcn_train_grad_norm", "Mean pre-clip global gradient norm of the most recent epoch.")
	skipped := r.Counter("rptcn_train_skipped_batches_total", "Batches rejected by the divergence guard.")
	rollbacks := r.Counter("rptcn_train_rollbacks_total", "Best-weight rollbacks after a non-finite validation loss.")
	return FuncHook{
		EpochEnd: func(s EpochStats) {
			epochs.Inc()
			epochTime.Observe(s.Duration.Seconds())
			trainLoss.Set(s.TrainLoss)
			validLoss.Set(s.ValidLoss)
			if !math.IsNaN(s.GradNorm) {
				gradNorm.Set(s.GradNorm)
			}
			if s.SkippedBatches > 0 {
				skipped.Add(float64(s.SkippedBatches))
			}
			if s.RolledBack {
				rollbacks.Inc()
			}
		},
		EarlyStop: func(StopInfo) { stops.Inc() },
	}
}
